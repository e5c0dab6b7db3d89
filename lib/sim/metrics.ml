type round_row = {
  hmsgs : int;
  hbits : int;
  bmsgs : int;
  bbits : int;
}

type t = {
  mutable honest_messages : int;
  mutable honest_bits : int;
  mutable byz_messages : int;
  mutable byz_bits : int;
  mutable byz_misaddressed : int;
  mutable rounds : int;
  mutable crashes : int;
  (* Per-round accounting: four parallel growable buffers (honest/byz ×
     messages/bits), grown together so an index is a completed round in
     all of them. Parallel int arrays, not an array of records: the
     engine closes a round once per barrier, but the buffers are read
     back per field by the trace/report layers. *)
  mutable pr_hmsgs : int array;
  mutable pr_hbits : int array;
  mutable pr_bmsgs : int array;
  mutable pr_bbits : int array;
  mutable cur_hmsgs : int;
  mutable cur_hbits : int;
  mutable cur_bmsgs : int;
  mutable cur_bbits : int;
}

let create () =
  {
    honest_messages = 0;
    honest_bits = 0;
    byz_messages = 0;
    byz_bits = 0;
    byz_misaddressed = 0;
    rounds = 0;
    crashes = 0;
    pr_hmsgs = [||];
    pr_hbits = [||];
    pr_bmsgs = [||];
    pr_bbits = [||];
    cur_hmsgs = 0;
    cur_hbits = 0;
    cur_bmsgs = 0;
    cur_bbits = 0;
  }

(* Merge of per-shard partial sums (the engine's billing): counts and
   bits were accumulated per shard and are folded into the round in
   shard order — sums commute, so the totals and the per-round row do
   not depend on the shard count. *)
let add_honest_bulk t ~msgs ~bits =
  t.honest_messages <- t.honest_messages + msgs;
  t.honest_bits <- t.honest_bits + bits;
  t.cur_hmsgs <- t.cur_hmsgs + msgs;
  t.cur_hbits <- t.cur_hbits + bits

let add_byz t ~bits =
  t.byz_messages <- t.byz_messages + 1;
  t.byz_bits <- t.byz_bits + bits;
  t.cur_bmsgs <- t.cur_bmsgs + 1;
  t.cur_bbits <- t.cur_bbits + bits

let record_byz_misaddressed t = t.byz_misaddressed <- t.byz_misaddressed + 1

let grow a cap =
  let bigger = Array.make (max 16 (2 * cap)) 0 in
  Array.blit a 0 bigger 0 cap;
  bigger

let end_round t =
  let cap = Array.length t.pr_hmsgs in
  if t.rounds = cap then begin
    t.pr_hmsgs <- grow t.pr_hmsgs cap;
    t.pr_hbits <- grow t.pr_hbits cap;
    t.pr_bmsgs <- grow t.pr_bmsgs cap;
    t.pr_bbits <- grow t.pr_bbits cap
  end;
  t.pr_hmsgs.(t.rounds) <- t.cur_hmsgs;
  t.pr_hbits.(t.rounds) <- t.cur_hbits;
  t.pr_bmsgs.(t.rounds) <- t.cur_bmsgs;
  t.pr_bbits.(t.rounds) <- t.cur_bbits;
  t.cur_hmsgs <- 0;
  t.cur_hbits <- 0;
  t.cur_bmsgs <- 0;
  t.cur_bbits <- 0;
  t.rounds <- t.rounds + 1

let record_crash t = t.crashes <- t.crashes + 1

let messages_by_round t =
  Array.init t.rounds (fun r -> t.pr_hmsgs.(r) + t.pr_bmsgs.(r))

let round_row t r =
  if r < 0 || r >= t.rounds then
    invalid_arg
      (Printf.sprintf "Metrics.round_row: round %d outside [0, %d)" r t.rounds);
  {
    hmsgs = t.pr_hmsgs.(r);
    hbits = t.pr_hbits.(r);
    bmsgs = t.pr_bmsgs.(r);
    bbits = t.pr_bbits.(r);
  }

let per_round t = Array.init t.rounds (round_row t)

let reconcile t =
  let sum a =
    let acc = ref 0 in
    for r = 0 to t.rounds - 1 do
      acc := !acc + a.(r)
    done;
    !acc
  in
  List.filter_map
    (fun (field, buf, total) ->
      let s = sum buf in
      if s = total then None else Some (field, s, total))
    [
      ("honest_messages", t.pr_hmsgs, t.honest_messages);
      ("honest_bits", t.pr_hbits, t.honest_bits);
      ("byz_messages", t.pr_bmsgs, t.byz_messages);
      ("byz_bits", t.pr_bbits, t.byz_bits);
    ]

let pp ppf t =
  Format.fprintf ppf
    "rounds=%d messages=%d bits=%d crashes=%d byz_messages=%d byz_bits=%d"
    t.rounds t.honest_messages t.honest_bits t.crashes t.byz_messages
    t.byz_bits
