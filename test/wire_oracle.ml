(* Reference implementation of [Repro_sim.Wire]: the codec as it was
   first written, one bit at a time. A fixed-width field is [width]
   single-bit writes (reads), most significant first; a gamma code is
   its zero prefix bit by bit, then the value; a byte string is one
   8-bit field per byte. Errors carry the library's messages and are
   raised in the same order.

   The library's byte-at-a-time codec must agree with this one on
   every stream: the same bytes and bit lengths from the same writes,
   and the same values, remaining bits and exception messages from the
   same reads. The oracle shares no code with the library beyond
   [Ilog.floor_log2] for the gamma length (whose own exception is part
   of [add_gamma max_int]'s behaviour). *)

module Writer = struct
  type t = { mutable bytes : Bytes.t; mutable len_bits : int }

  let create () = { bytes = Bytes.make 1 '\000'; len_bits = 0 }
  let bit_length t = t.len_bits

  let add_bit t b =
    if t.len_bits = 8 * Bytes.length t.bytes then begin
      let bigger = Bytes.make (2 * Bytes.length t.bytes) '\000' in
      Bytes.blit t.bytes 0 bigger 0 (Bytes.length t.bytes);
      t.bytes <- bigger
    end;
    let i = t.len_bits in
    if b then begin
      let byte = Char.code (Bytes.get t.bytes (i lsr 3)) in
      Bytes.set t.bytes (i lsr 3) (Char.chr (byte lor (1 lsl (7 - (i land 7)))))
    end;
    t.len_bits <- i + 1

  let add_fixed t v ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Writer.add_fixed: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg "Wire.Writer.add_fixed: value does not fit";
    for i = width - 1 downto 0 do
      add_bit t ((v lsr i) land 1 = 1)
    done

  let add_gamma t v =
    if v < 0 then invalid_arg "Wire.Writer.add_gamma: negative";
    let v = v + 1 in
    let k = Repro_util.Ilog.floor_log2 v in
    for _ = 1 to k do
      add_bit t false
    done;
    add_fixed t v ~width:(k + 1)

  let add_string t s =
    String.iter (fun c -> add_fixed t (Char.code c) ~width:8) s

  let contents t = Bytes.sub_string t.bytes 0 ((t.len_bits + 7) / 8)
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string s = { data = s; pos = 0 }
  let bits_remaining t = (8 * String.length t.data) - t.pos

  let read_bit t =
    if t.pos >= 8 * String.length t.data then
      invalid_arg "Wire.Reader: out of bits";
    let byte = Char.code t.data.[t.pos lsr 3] in
    let b = byte land (1 lsl (7 - (t.pos land 7))) <> 0 in
    t.pos <- t.pos + 1;
    b

  let read_fixed t ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Reader.read_fixed: width";
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor if read_bit t then 1 else 0
    done;
    !v

  let read_gamma t =
    let k = ref 0 in
    while not (read_bit t) do
      incr k;
      if !k > 61 then invalid_arg "Wire.Reader: gamma"
    done;
    let rest = read_fixed t ~width:!k in
    ((1 lsl !k) lor rest) - 1

  let read_string t len =
    if len < 0 then invalid_arg "Wire.Reader.read_string: negative length";
    String.init len (fun _ -> Char.chr (read_fixed t ~width:8))
end
