module Metrics = Repro_sim.Metrics

type meta_value = [ `Int of int | `Str of string ]

type t = {
  timings : bool;
  buf : Buffer.t;
  (* Current (open) round record, in arrival order; canonicalized
     (sorted) at the round boundary. *)
  mutable crashes : int list;
  mutable decides : int list;
  (* The open round's size histogram: [sizes.(b)] messages of [b] bits,
     for [b < sizes_len] ([sizes_len] is one past the largest size seen
     this round). Grown on demand; emitted in index order, which is
     canonical without a sort. *)
  mutable sizes : int array;
  mutable sizes_len : int;
  mutable records : int;
  mutable total_decides : int;
  mutable max_msg_bits : int;
  mutable last_wall : float;
  mutable last_alloc : float;
  mutable finished : bool;
}

let schema_version = "run-trace/v1"

(* {2 JSON emission}

   Hand-rolled writer with a fixed field order: the byte-identity
   guarantee of the trace (same seed => same file) is part of the
   contract, so the format must not depend on library version or
   iteration order. *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_int_field buf key v =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (string_of_int v)

let add_int_list_field buf key vs =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    vs;
  Buffer.add_char buf ']'

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let create ?(timings = false) ?(meta = []) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"type\":\"meta\",\"schema\":\"";
  Buffer.add_string buf schema_version;
  Buffer.add_char buf '"';
  List.iter
    (fun (key, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf key;
      Buffer.add_string buf "\":";
      match v with
      | `Int i -> Buffer.add_string buf (string_of_int i)
      | `Str s -> add_escaped buf s)
    meta;
  Buffer.add_string buf ",\"timings\":";
  Buffer.add_string buf (if timings then "true" else "false");
  Buffer.add_string buf "}\n";
  {
    timings;
    buf;
    crashes = [];
    decides = [];
    sizes = Array.make 64 0;
    sizes_len = 0;
    records = 0;
    total_decides = 0;
    max_msg_bits = 0;
    last_wall = (if timings then Unix.gettimeofday () else 0.);
    last_alloc = (if timings then allocated_words () else 0.);
    finished = false;
  }

let tap t ~round:_ ~src:_ ~dst:_ ~bits _ =
  if bits >= t.sizes_len then begin
    if bits >= Array.length t.sizes then begin
      let grown = Array.make (max (bits + 1) (2 * Array.length t.sizes)) 0 in
      Array.blit t.sizes 0 grown 0 t.sizes_len;
      t.sizes <- grown
    end;
    t.sizes_len <- bits + 1;
    (* A new run maximum is above every size of the open round too. *)
    if bits > t.max_msg_bits then t.max_msg_bits <- bits
  end;
  t.sizes.(bits) <- t.sizes.(bits) + 1

let on_crash t ~round:_ ~id = t.crashes <- id :: t.crashes

let on_decide t ~round:_ ~id =
  t.decides <- id :: t.decides;
  t.total_decides <- t.total_decides + 1

let on_round_end t ~round (m : Metrics.t) =
  let row = Metrics.round_row m round in
  let buf = t.buf in
  Buffer.add_string buf "{\"type\":\"round\",\"round\":";
  Buffer.add_string buf (string_of_int round);
  add_int_field buf "honest_msgs" row.Metrics.hmsgs;
  add_int_field buf "honest_bits" row.Metrics.hbits;
  add_int_field buf "byz_msgs" row.Metrics.bmsgs;
  add_int_field buf "byz_bits" row.Metrics.bbits;
  add_int_list_field buf "crashes" (List.sort Int.compare t.crashes);
  add_int_list_field buf "decides" (List.sort Int.compare t.decides);
  (* Size histogram of the round's on-wire messages, in size order. *)
  Buffer.add_string buf ",\"sizes\":[";
  let first = ref true in
  for bits = 0 to t.sizes_len - 1 do
    let count = t.sizes.(bits) in
    if count > 0 then begin
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_char buf '[';
      Buffer.add_string buf (string_of_int bits);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf ']'
    end
  done;
  Buffer.add_char buf ']';
  if t.timings then begin
    let wall = Unix.gettimeofday () in
    let alloc = allocated_words () in
    add_int_field buf "wall_ns"
      (int_of_float ((wall -. t.last_wall) *. 1e9));
    add_int_field buf "alloc_words" (int_of_float (alloc -. t.last_alloc));
    t.last_wall <- wall;
    t.last_alloc <- alloc
  end;
  Buffer.add_string buf "}\n";
  t.crashes <- [];
  t.decides <- [];
  Array.fill t.sizes 0 t.sizes_len 0;
  t.sizes_len <- 0;
  t.records <- t.records + 1

let finish t (m : Metrics.t) =
  if t.finished then invalid_arg "Trace.finish: already finished";
  t.finished <- true;
  let buf = t.buf in
  Buffer.add_string buf "{\"type\":\"summary\",\"rounds\":";
  Buffer.add_string buf (string_of_int m.Metrics.rounds);
  add_int_field buf "honest_msgs" m.Metrics.honest_messages;
  add_int_field buf "honest_bits" m.Metrics.honest_bits;
  add_int_field buf "byz_msgs" m.Metrics.byz_messages;
  add_int_field buf "byz_bits" m.Metrics.byz_bits;
  add_int_field buf "byz_misaddressed" m.Metrics.byz_misaddressed;
  add_int_field buf "crashes" m.Metrics.crashes;
  add_int_field buf "decides" t.total_decides;
  add_int_field buf "max_msg_bits" t.max_msg_bits;
  Buffer.add_string buf "}\n"

let contents t = Buffer.contents t.buf
let rounds_recorded t = t.records

let write_file t path =
  (* Temp-file + rename: a reader (or an interrupted writer) never sees a
     truncated trace under the final name. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents t.buf));
  Sys.rename tmp path
