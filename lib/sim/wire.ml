(* Every field moves whole bytes: a field of [width] bits starting at
   bit [pos] spans the partial byte [pos lsr 3] (its low [8 - pos land 7]
   bits), whole middle bytes, and a partial last byte, and is written or
   read byte by byte across that span. The output is bit-identical to
   writing the field one bit at a time, msb first — test/wire_oracle.ml
   keeps that definition and the QCheck suite compares the two. *)

module Writer = struct
  type t = { mutable bytes : Bytes.t; mutable len_bits : int }

  let create () = { bytes = Bytes.make 16 '\000'; len_bits = 0 }
  let bit_length t = t.len_bits

  let ensure t bits =
    let needed = (t.len_bits + bits + 7) / 8 in
    if needed > Bytes.length t.bytes then begin
      (* Grow geometrically from the needed size in one step: doubling
         until [needed] is covered means a single blit per [ensure] even
         for appends much larger than the current buffer. *)
      let cap = ref (max 16 (2 * Bytes.length t.bytes)) in
      while !cap < needed do
        cap := 2 * !cap
      done;
      let bigger = Bytes.make !cap '\000' in
      Bytes.blit t.bytes 0 bigger 0 (Bytes.length t.bytes);
      t.bytes <- bigger
    end

  (* Invariant every write relies on: the buffer is zero-filled at
     creation and growth, and no writer ever sets a bit at or beyond
     [len_bits] — so every bit past the end is already 0, a field is
     ORed into its partial first byte, and later bytes are plain
     stores. *)

  let add_bit t b =
    ensure t 1;
    if b then begin
      let i = t.len_bits in
      let byte = Char.code (Bytes.get t.bytes (i lsr 3)) in
      Bytes.set t.bytes (i lsr 3) (Char.chr (byte lor (1 lsl (7 - (i land 7)))))
    end;
    t.len_bits <- t.len_bits + 1

  let add_zeros t k =
    if k < 0 then invalid_arg "Wire.Writer.add_zeros: negative";
    if k > 0 then begin
      ensure t k;
      t.len_bits <- t.len_bits + k
    end

  let add_fixed t v ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Writer.add_fixed: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg "Wire.Writer.add_fixed: value does not fit";
    if width > 0 then begin
      (* [ensure] covers the whole span before the first store: at most
         9 bytes (1 + 8·7 + 5 bits for width 62 at bit offset 7). *)
      ensure t width;
      let bytes = t.bytes and pos = t.len_bits in
      let i = pos lsr 3 and free = 8 - (pos land 7) in
      let cur = Char.code (Bytes.unsafe_get bytes i) in
      if width <= free then
        Bytes.unsafe_set bytes i
          (Char.unsafe_chr (cur lor (v lsl (free - width))))
      else begin
        let rest = ref (width - free) and j = ref (i + 1) in
        Bytes.unsafe_set bytes i (Char.unsafe_chr (cur lor (v lsr !rest)));
        while !rest >= 8 do
          rest := !rest - 8;
          Bytes.unsafe_set bytes !j
            (Char.unsafe_chr ((v lsr !rest) land 0xff));
          incr j
        done;
        if !rest > 0 then
          Bytes.unsafe_set bytes !j
            (Char.unsafe_chr ((v lsl (8 - !rest)) land 0xff))
      end;
      t.len_bits <- pos + width
    end

  let add_gamma t v =
    if v < 0 then invalid_arg "Wire.Writer.add_gamma: negative";
    let v = v + 1 in
    let k = Repro_util.Ilog.floor_log2 v in
    add_zeros t k;
    add_fixed t v ~width:(k + 1)

  let add_subbytes t src off n =
    if off < 0 || n < 0 || off > Bytes.length src - n then
      invalid_arg "Wire.Writer.add_subbytes: range";
    ensure t (8 * n);
    let bytes = t.bytes and pos = t.len_bits in
    let i = pos lsr 3 and o = pos land 7 in
    if o = 0 then Bytes.blit src off bytes i n
    else
      (* Each input byte straddles two buffer bytes; [ensure] covered
         byte [i + n], the last one touched. *)
      for j = 0 to n - 1 do
        let c = Char.code (Bytes.unsafe_get src (off + j)) in
        let cur = Char.code (Bytes.unsafe_get bytes (i + j)) in
        Bytes.unsafe_set bytes (i + j) (Char.unsafe_chr (cur lor (c lsr o)));
        Bytes.unsafe_set bytes (i + j + 1)
          (Char.unsafe_chr ((c lsl (8 - o)) land 0xff))
      done;
    t.len_bits <- pos + (8 * n)

  (* The writer never mutates [src], so viewing the string as bytes is
     sound. *)
  let add_string t s =
    add_subbytes t (Bytes.unsafe_of_string s) 0 (String.length s)

  let byte_length t = (t.len_bits + 7) / 8
  let contents t = Bytes.sub_string t.bytes 0 (byte_length t)
  let unsafe_bytes t = t.bytes

  (* Only the written prefix can hold set bits (see the invariant above),
     so zeroing it restores the all-zero buffer [create] returns. *)
  let reset t =
    Bytes.fill t.bytes 0 (byte_length t) '\000';
    t.len_bits <- 0
end

module Reader = struct
  (* [end_bits] bounds every read: [8 * String.length] for a string, the
     frame's length for a prefix of a retained buffer. A reader never
     writes [data], so wrapping a string with [Bytes.unsafe_of_string]
     is sound. *)
  type t = { data : Bytes.t; mutable end_bits : int; mutable pos : int }

  let of_string s =
    { data = Bytes.unsafe_of_string s; end_bits = 8 * String.length s; pos = 0 }

  let of_bytes b ~len =
    if len < 0 || len > Bytes.length b then
      invalid_arg "Wire.Reader.of_bytes: length";
    { data = b; end_bits = 8 * len; pos = 0 }

  let bits_remaining t = t.end_bits - t.pos
  let position t = t.pos
  let unsafe_bytes t = t.data

  let skip t bits =
    if bits < 0 || bits > bits_remaining t then
      invalid_arg "Wire.Reader: out of bits";
    t.pos <- t.pos + bits

  (* The bound is lowered for [f] and restored however [f] ends, so the
     caller's reader reads on past the field. *)
  let within t ~bits f =
    if bits < 0 || bits > bits_remaining t then
      invalid_arg "Wire.Reader: out of bits";
    let end_ = t.end_bits and stop = t.pos + bits in
    t.end_bits <- stop;
    match f t with
    | v ->
        t.end_bits <- end_;
        if t.pos <> stop then invalid_arg "Wire.Reader.within: short read";
        v
    | exception e ->
        t.end_bits <- end_;
        raise e

  let read_bit t =
    if t.pos >= t.end_bits then
      invalid_arg "Wire.Reader: out of bits";
    let byte = Char.code (Bytes.get t.data (t.pos lsr 3)) in
    let b = byte land (1 lsl (7 - (t.pos land 7))) <> 0 in
    t.pos <- t.pos + 1;
    b

  let read_fixed t ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Reader.read_fixed: width";
    let data = t.data and pos = t.pos in
    (* One bounds check for the whole span: every byte read below lies
       before bit [pos + width <= 8 * length]. *)
    if pos + width > t.end_bits then invalid_arg "Wire.Reader: out of bits";
    t.pos <- pos + width;
    if width = 0 then 0
    else begin
      let i = pos lsr 3 and free = 8 - (pos land 7) in
      let first =
        Char.code (Bytes.unsafe_get data i) land (0xff lsr (8 - free))
      in
      if width <= free then first lsr (free - width)
      else begin
        let v = ref first and rest = ref (width - free) and j = ref (i + 1) in
        while !rest >= 8 do
          v := (!v lsl 8) lor Char.code (Bytes.unsafe_get data !j);
          rest := !rest - 8;
          incr j
        done;
        if !rest > 0 then
          v :=
            (!v lsl !rest)
            lor (Char.code (Bytes.unsafe_get data !j) lsr (8 - !rest));
        !v
      end
    end

  let read_gamma t =
    let data = t.data and start = t.pos and end_ = t.end_bits in
    (* Scan the zero prefix a byte at a time: mask off the bits before
       [pos] in its byte; a zero byte advances to the next byte
       boundary, a non-zero one places the terminating 1 by its
       leading-zero count. The writer can never emit k > 61 zeros
       ([add_gamma] caps at [floor_log2 max_int] = 61), and accepting
       k = 62 would compute [(1 lsl 62) lor rest], which wraps negative
       on 63-bit ints. So 62 zeros are malformed whether or not the input
       ends there, and the input ending after fewer is out of bits. *)
    let pos = ref start and b = ref 0 in
    while !b = 0 do
      if !pos - start > 61 then invalid_arg "Wire.Reader: gamma";
      if !pos >= end_ then invalid_arg "Wire.Reader: out of bits";
      let byte = Char.code (Bytes.unsafe_get data (!pos lsr 3)) in
      b := byte land (0xff lsr (!pos land 7));
      if !b = 0 then pos := (!pos lor 7) + 1
    done;
    let one = (!pos land lnot 7) + 7 - Repro_util.Ilog.floor_log2 !b in
    let k = one - start in
    if k > 61 then invalid_arg "Wire.Reader: gamma";
    t.pos <- one + 1;
    (* The terminating 1 is the top bit of the value. *)
    let rest = read_fixed t ~width:k in
    ((1 lsl k) lor rest) - 1

  let read_string t len =
    if len < 0 then invalid_arg "Wire.Reader.read_string: negative length";
    if len > bits_remaining t / 8 then invalid_arg "Wire.Reader: out of bits";
    let data = t.data and pos = t.pos in
    let i = pos lsr 3 and o = pos land 7 in
    t.pos <- pos + (8 * len);
    if o = 0 then Bytes.sub_string data i len
    else begin
      (* Each output byte straddles input bytes [i + j] and [i + j + 1];
         the bound check above puts both inside [data] since [o >= 1]. *)
      let b = Bytes.create len in
      for j = 0 to len - 1 do
        let hi = Char.code (Bytes.unsafe_get data (i + j)) in
        let lo = Char.code (Bytes.unsafe_get data (i + j + 1)) in
        Bytes.unsafe_set b j
          (Char.unsafe_chr (((hi lsl o) lor (lo lsr (8 - o))) land 0xff))
      done;
      Bytes.unsafe_to_string b
    end
end

let encode_with write v =
  let w = Writer.create () in
  write w v;
  (Writer.contents w, Writer.bit_length w)

let decode_with read s =
  match read (Reader.of_string s) with
  | v -> Some v
  | exception Invalid_argument _ -> None

let gamma_bits v =
  if v < 0 then invalid_arg "Wire.gamma_bits: negative";
  (2 * Repro_util.Ilog.bit_width (v + 1)) - 1
