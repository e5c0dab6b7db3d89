module Wire = Repro_sim.Wire

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let clear t = t.len <- 0

  let push t v =
    if t.len = Array.length t.a then begin
      let b = Array.make (max 8 (2 * t.len)) 0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1
end

let grow a len fill =
  if len <= Array.length a then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Byte [k] of the bit string starting at bit [pos] of [data]. *)
let[@inline] byte_at data pos k =
  let i = (pos lsr 3) + k and o = pos land 7 in
  let hi = Char.code (Bytes.unsafe_get data i) in
  if o = 0 then hi
  else
    ((hi lsl o) lor (Char.code (Bytes.unsafe_get data (i + 1)) lsr (8 - o)))
    land 0xff

(* The [nbytes] bytes from byte [o] of [arena] equal those at bit [pos]
   of [data]. *)
let same_bytes arena o data pos nbytes =
  let k = ref 0 in
  while
    !k < nbytes
    && Int.equal
         (Char.code (Bytes.unsafe_get arena (o + !k)))
         (byte_at data pos !k)
  do
    incr k
  done;
  !k = nbytes

(* Copy the [nbytes] bytes at bit [pos] of [data] to byte [o] of
   [arena]. *)
let copy_bytes data pos arena o nbytes =
  for k = 0 to nbytes - 1 do
    Bytes.unsafe_set arena (o + k) (Char.unsafe_chr (byte_at data pos k))
  done

(* [bits] bits at bit [pos] of [data], padded to whole bytes, must lie
   inside [data]; the padded byte count. *)
let padded_range fn data ~pos ~bits =
  let nbytes = (bits + 7) / 8 in
  if pos < 0 || bits < 0 || pos + (8 * nbytes) > 8 * Bytes.length data then
    invalid_arg (fn ^ ": range");
  nbytes

(* Open addressing with linear probing: [slots] holds [g + 1] for entry
   [g], 0 when empty, and is kept at most half full; [hashes.(g)] is
   entry [g]'s hash. A lookup is a cursor ([cur], [h]) that [start]
   places and [candidate] advances, so the caller's equality test needs
   no closure. *)
module Index = struct
  type t = {
    mutable slots : int array;
    hashes : Ibuf.t;
    mutable cur : int;
    mutable h : int;
  }

  let create () =
    { slots = Array.make 64 0; hashes = Ibuf.create (); cur = 0; h = 0 }

  let length t = t.hashes.len

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    Ibuf.clear t.hashes

  let start t h =
    t.h <- h;
    t.cur <- h land (Array.length t.slots - 1)

  (* The next entry of hash [h] on the probe sequence, or -1 once the
     cursor rests on an empty slot, the one [add] fills. *)
  let rec candidate t =
    let g = t.slots.(t.cur) - 1 in
    if g < 0 then -1
    else begin
      t.cur <- (t.cur + 1) land (Array.length t.slots - 1);
      if Int.equal t.hashes.a.(g) t.h then g else candidate t
    end

  let add t =
    let g = length t in
    t.slots.(t.cur) <- g + 1;
    Ibuf.push t.hashes t.h;
    if 2 * (g + 1) > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) 0 in
      let mask = Array.length slots - 1 in
      for e = 0 to g do
        let i = ref (t.hashes.a.(e) land mask) in
        while slots.(!i) > 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- e + 1
      done;
      t.slots <- slots
    end;
    g
end

module Payloads = struct
  type t = {
    index : Index.t;
    mutable arena : Bytes.t;
    starts : Ibuf.t;
    bits : Ibuf.t;
  }

  let create () =
    let starts = Ibuf.create () in
    Ibuf.push starts 0;
    {
      index = Index.create ();
      arena = Bytes.create 256;
      starts;
      bits = Ibuf.create ();
    }

  let length t = Index.length t.index
  let bits t g = t.bits.a.(g)
  let bytes t = t.starts.a.(length t)

  let clear t =
    Index.clear t.index;
    Ibuf.clear t.bits;
    Ibuf.clear t.starts;
    Ibuf.push t.starts 0

  let holds t g data pos nbytes bits =
    Int.equal t.bits.a.(g) bits
    && same_bytes t.arena t.starts.a.(g) data pos nbytes

  let intern t data ~pos ~bits =
    let nbytes = padded_range "Round_tables.Payloads.intern" data ~pos ~bits in
    (* The hash covers the padded bytes only, so payloads that differ
       only in bit length (["\x80"] at 1 and at 2 bits) share a probe
       sequence and [holds] tells them apart by length. *)
    let h = ref 0xcbf29ce4 in
    for k = 0 to nbytes - 1 do
      h := (!h lxor byte_at data pos k) * 0x100000001b3
    done;
    Index.start t.index !h;
    let g = ref (Index.candidate t.index) in
    while !g >= 0 && not (holds t !g data pos nbytes bits) do
      g := Index.candidate t.index
    done;
    if !g >= 0 then !g
    else begin
      let start = bytes t in
      if start + nbytes > Bytes.length t.arena then begin
        let bigger =
          Bytes.create (max (start + nbytes) (2 * Bytes.length t.arena))
        in
        Bytes.blit t.arena 0 bigger 0 start;
        t.arena <- bigger
      end;
      copy_bytes data pos t.arena start nbytes;
      Ibuf.push t.starts (start + nbytes);
      Ibuf.push t.bits bits;
      Index.add t.index
    end

  let add_entry w t g =
    let start = t.starts.a.(g) in
    Wire.Writer.add_gamma w (bits t g);
    Wire.Writer.add_subbytes w t.arena start (t.starts.a.(g + 1) - start)

  let read_entry r t =
    let bits = Wire.Reader.read_gamma r in
    if bits > Wire.Reader.bits_remaining r then
      invalid_arg "Round_tables.Payloads.read_entry: payload exceeds the frame";
    let pos = Wire.Reader.position r in
    Wire.Reader.skip r (8 * ((bits + 7) / 8));
    intern t (Wire.Reader.unsafe_bytes r) ~pos ~bits
end

module Lists = struct
  type t = { index : Index.t; starts : Ibuf.t; entries : Ibuf.t }

  let create () =
    let starts = Ibuf.create () in
    Ibuf.push starts 0;
    { index = Index.create (); starts; entries = Ibuf.create () }

  let length t = Index.length t.index
  let length_of t l = t.starts.a.(l + 1) - t.starts.a.(l)
  let entry t l j = t.entries.a.(t.starts.a.(l) + j)

  let clear t =
    Index.clear t.index;
    Ibuf.clear t.entries;
    Ibuf.clear t.starts;
    Ibuf.push t.starts 0

  let hash (a : int array) len =
    let h = ref len in
    for j = 0 to len - 1 do
      h := (!h lxor a.(j)) * 0x100000001b3
    done;
    !h

  let equal_to t l (a : int array) len =
    length_of t l = len
    &&
    let o = t.starts.a.(l) and j = ref 0 in
    while !j < len && Int.equal t.entries.a.(o + !j) a.(!j) do
      incr j
    done;
    !j = len

  let intern t a len =
    Index.start t.index (hash a len);
    let l = ref (Index.candidate t.index) in
    while !l >= 0 && not (equal_to t !l a len) do
      l := Index.candidate t.index
    done;
    if !l >= 0 then !l
    else begin
      for j = 0 to len - 1 do
        Ibuf.push t.entries a.(j)
      done;
      Ibuf.push t.starts t.entries.len;
      Index.add t.index
    end
end

(* Cell [c]'s padded bytes start at arena byte [c * stride], a stride
   of whole words grown (the arena laid out anew) for a longer
   encoding. [at.(j)] packs position [j]'s cell and bit length as
   [cell lsl 32 lor bits] ([-1]: never stored); [refs.(c)] counts cell
   [c]'s positions, and unnamed cells form a free list from [free]
   through [refs] ([-2 - next], [-1] ending it). A store writes a cell
   no other position names; with as many cells as positions, one is
   always free. *)
module Memo = struct
  type 'a t = {
    mutable msgs : 'a array;
    mutable at : int array;
    mutable refs : int array;
    mutable free : int;
    mutable arena : Bytes.t;
    mutable stride : int;
    mutable stores : int;
  }

  let create () =
    { msgs = [||]; at = [||]; refs = [||]; free = -1; arena = Bytes.empty;
      stride = 8; stores = 0 }

  let stores t = t.stores
  let[@inline] cell t j = t.at.(j) asr 32
  let[@inline] bits t j = t.at.(j) land 0xffff_ffff

  let push_free t c =
    t.refs.(c) <- -2 - t.free;
    t.free <- c

  let relayout t ~cap ~stride =
    let arena = Bytes.make (cap * stride) '\000' in
    for c = 0 to (Bytes.length t.arena / t.stride) - 1 do
      Bytes.blit t.arena (c * t.stride) arena (c * stride) t.stride
    done;
    t.arena <- arena;
    t.stride <- stride

  let reserve t c =
    let cap = Array.length t.at in
    if c > cap then begin
      let cap' = max c (2 * cap) in
      t.at <- grow t.at cap' (-1);
      t.refs <- grow t.refs cap' 0;
      for c = cap' - 1 downto cap do
        push_free t c
      done;
      relayout t ~cap:cap' ~stride:t.stride
    end

  let[@inline] mem t j m =
    j < Array.length t.at && t.at.(j) >= 0 && t.msgs.(j) == m

  (* Position [j] (made room for) stops naming its cell. *)
  let release t j m =
    if j >= Array.length t.at then reserve t (j + 1);
    if j >= Array.length t.msgs then
      t.msgs <- grow t.msgs (Array.length t.at) m;
    if t.at.(j) >= 0 then begin
      let c = cell t j in
      t.refs.(c) <- t.refs.(c) - 1;
      if t.refs.(c) = 0 then push_free t c
    end

  (* Position [j] holds [m], of a [b]-bit encoding in cell [c]. *)
  let name t j c b m =
    t.refs.(c) <- t.refs.(c) + 1;
    t.at.(j) <- (c lsl 32) lor b;
    t.msgs.(j) <- m

  (* Position [j] holds [m], whose encoding is the writer [w]'s
     contents, copied into a free cell. The free list is last in, first
     out: a cell's only position writes it again. *)
  let store t j m w =
    let b = Wire.Writer.bit_length w in
    let nbytes = (b + 7) / 8 in
    if nbytes > t.stride then
      relayout t ~cap:(Array.length t.at) ~stride:(8 * ((nbytes + 7) / 8));
    release t j m;
    let c = t.free in
    t.free <- -2 - t.refs.(c);
    t.refs.(c) <- 0;
    Bytes.blit (Wire.Writer.unsafe_bytes w) 0 t.arena (c * t.stride) nbytes;
    t.stores <- t.stores + 1;
    name t j c b m

  let intern t tbl w write ~prev j m =
    if j > 0 && mem t (j - 1) m then begin
      if not (mem t j m) then begin
        release t j m;
        name t j (cell t (j - 1)) (bits t (j - 1)) m
      end;
      prev
    end
    else begin
      if not (mem t j m) then begin
        Wire.Writer.reset w;
        write w m;
        store t j m w
      end;
      Payloads.intern tbl t.arena
        ~pos:(8 * cell t j * t.stride)
        ~bits:(bits t j)
    end
end
