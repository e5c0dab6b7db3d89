exception Protocol_error of string

type io = {
  read : Bytes.t -> int -> int -> int;
  write : Bytes.t -> int -> int -> int;
}

let io_of_fd fd =
  let rec retry f buf pos len =
    match f fd buf pos len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry f buf pos len
  in
  {
    read = (fun buf pos len -> retry Unix.read buf pos len);
    write = (fun buf pos len -> retry Unix.single_write buf pos len);
  }

let max_frame = 1 lsl 24

let read_exact io buf pos len =
  let got = ref 0 in
  while !got < len do
    let n = io.read buf (pos + !got) (len - !got) in
    if n = 0 then raise (Protocol_error "eof inside frame");
    got := !got + n
  done

let write_exact io buf pos len =
  let put = ref 0 in
  while !put < len do
    let n = io.write buf (pos + !put) (len - !put) in
    if n <= 0 then raise (Protocol_error "write returned no progress");
    put := !put + n
  done

module Wire = Repro_sim.Wire

let set_header buf len =
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff))

let write_frame io payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Frame.write_frame: payload too large";
  let buf = Bytes.create (4 + len) in
  set_header buf len;
  Bytes.blit_string payload 0 buf 4 len;
  write_exact io buf 0 (4 + len)

(* The header's 32 zero bits leave the payload byte-aligned at byte 4,
   so its bytes are those a fresh writer would produce. *)
let begin_framed w =
  Wire.Writer.reset w;
  Wire.Writer.add_fixed w 0 ~width:32

let write_framed io w =
  let total = Wire.Writer.byte_length w in
  if total < 4 then invalid_arg "Frame.write_framed: no header reserved";
  let len = total - 4 in
  if len > max_frame then invalid_arg "Frame.write_framed: payload too large";
  let buf = Wire.Writer.unsafe_bytes w in
  set_header buf len;
  write_exact io buf 0 total

(* Reads the 4-byte header into [hdr], distinguishing clean EOF (nothing
   read) from truncation (EOF after 1-3 header bytes). *)
let read_header_opt io hdr =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < 4 do
    let n = io.read hdr !got (4 - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !eof then
    if !got = 0 then None else raise (Protocol_error "eof inside frame header")
  else
    let b i = Char.code (Bytes.get hdr i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame then
      raise
        (Protocol_error
           (Printf.sprintf "frame length %d exceeds max %d" len max_frame));
    Some len

let read_frame_opt io =
  match read_header_opt io (Bytes.create 4) with
  | None -> None
  | Some len ->
      let buf = Bytes.create len in
      read_exact io buf 0 len;
      Some (Bytes.unsafe_to_string buf)

let read_frame io =
  match read_frame_opt io with
  | Some payload -> payload
  | None -> raise (Protocol_error "eof at frame boundary")

type inbuf = { mutable buf : Bytes.t }

let inbuf () = { buf = Bytes.create 64 }

(* The header is read into the buffer's first bytes, then overwritten by
   the payload. Bytes past the frame's length are left from earlier
   frames; the reader's bound keeps them out of reach. *)
let read_framed io ib =
  match read_header_opt io ib.buf with
  | None -> raise (Protocol_error "eof at frame boundary")
  | Some len ->
      if len > Bytes.length ib.buf then
        ib.buf <- Bytes.create (max len (2 * Bytes.length ib.buf));
      read_exact io ib.buf 0 len;
      Wire.Reader.of_bytes ib.buf ~len
