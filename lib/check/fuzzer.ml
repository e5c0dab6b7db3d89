module Rng = Repro_util.Rng
module Ilog = Repro_util.Ilog
module Wire = Repro_sim.Wire
module Engine = Repro_sim.Engine
module Experiment = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module CR = Repro_renaming.Crash_renaming
module BR = Repro_renaming.Byzantine_renaming
module Byz_strategies = Repro_renaming.Byz_strategies
module Trace = Repro_obs.Trace

type config = {
  algo : Schedule.algo;
  n : int;
  namespace : int;
  trials : int;
  seed : int;
  fault_budget : int;
}

let default_config ?(algo = Schedule.Crash) ?(n = 32) ?namespace ?(trials = 100)
    ?(seed = 1) ?fault_budget () =
  let namespace = match namespace with Some ns -> ns | None -> 64 * n in
  let fault_budget =
    match fault_budget with
    | Some f -> f
    | None -> ( match algo with Schedule.Crash -> n / 4 | Schedule.Byz -> n / 8)
  in
  if n < 1 then invalid_arg "Fuzzer.default_config: n";
  if namespace < n then invalid_arg "Fuzzer.default_config: namespace < n";
  { algo; n; namespace; trials; seed; fault_budget }

(* Seeds for derived streams, mirroring [Experiment]'s conventions so a
   schedule's participant set matches what the bench harness would draw
   for the same seed. *)
let crash_ids_of (s : Schedule.t) =
  Experiment.random_ids ~seed:(s.seed lxor 0x1d5) ~namespace:s.namespace ~n:s.n

let byz_ids_of (s : Schedule.t) =
  Experiment.random_ids ~seed:(s.seed lxor 0x2e7) ~namespace:s.namespace ~n:s.n

let crash_round_bound ~n = 3 * CR.phases CR.experiment_params ~n

(* Byzantine executions under active attack cost rounds proportional to
   the attack (Theorem 1.3 prices this in); the bound here is the
   deadlock guard the evaluation harness uses, not a tight theorem
   constant. *)
let byz_round_bound = 400_000

(* {2 Budgets}

   The theorem shapes with deliberately generous constants: an oracle
   that cries wolf on an unlucky-but-legal seed is worse than a slack
   factor of a few — the point is to catch the orders-of-magnitude
   blow-ups (all-to-all regressions, runaway re-election, Ω(n)-bit
   messages) that would silently void the paper's claims. The margins
   were calibrated against fuzz campaigns across n ∈ [8, 64]; see
   test/test_fuzz.ml. *)

let crash_bit_budget ~n ~namespace ~f =
  let lg = Ilog.ceil_log2 (max 2 n) in
  let lg_ns = Ilog.ceil_log2 (max 2 namespace) in
  256 * (f + lg + 1) * n * (lg + 1) * (lg_ns + 2)

let byz_bit_budget ~n ~namespace ~f =
  let lg = Ilog.ceil_log2 (max 2 n) in
  let lg_ns = Ilog.ceil_log2 (max 2 namespace) in
  1024 * (f + 1) * n * (lg + 2) * (lg_ns + 2)

let crash_max_msg_bits ~n ~namespace =
  (* tag + gamma(id) + gamma(lo) + gamma(span) + gamma(d) + gamma(p):
     identities up to [namespace], interval fields up to [n], depth and
     escalation bounded by the phase count. *)
  let phase_bound = crash_round_bound ~n + 2 in
  2
  + Wire.gamma_bits namespace
  + (2 * Wire.gamma_bits n)
  + (2 * Wire.gamma_bits phase_bound)

let byz_max_msg_bits ~namespace =
  (* worst honest message: a validator lock carrying a 62-bit
     fingerprint plus a count gamma-coded up to the namespace. *)
  3 + 2 + 62 + Wire.gamma_bits namespace + 4

let crash_expectations (s : Schedule.t) : Oracle.expectations =
  {
    round_bound = crash_round_bound ~n:s.n;
    target = s.n;
    max_faults = List.length s.crashes;
    bit_budget =
      crash_bit_budget ~n:s.n ~namespace:s.namespace
        ~f:(List.length s.crashes);
    max_msg_bits = crash_max_msg_bits ~n:s.n ~namespace:s.namespace;
    order_preserving = false;
  }

let byz_expectations (s : Schedule.t) : Oracle.expectations =
  {
    round_bound = byz_round_bound;
    target = s.n;
    max_faults = Schedule.faults s;
    bit_budget =
      byz_bit_budget ~n:s.n ~namespace:s.namespace ~f:(List.length s.byz);
    max_msg_bits = byz_max_msg_bits ~namespace:s.namespace;
    order_preserving = true;
  }

let scripted_events (s : Schedule.t) =
  List.map
    (fun { Schedule.cr_round; cr_victim; cr_delivery } ->
      ( cr_round,
        cr_victim,
        match cr_delivery with
        | Schedule.All -> `All
        | Schedule.Nothing -> `Nothing
        | Schedule.Subset salt -> `Subset salt ))
    s.crashes

let trace_line buf ~round ~src ~dst pp msg =
  Printf.ksprintf (Buffer.add_string buf) "r%-5d %6d -> %-6d %s\n" round src
    dst
    (Format.asprintf "%a" pp msg)

(* The engine tap both runs attach. A one-entry payload memo, hit by
   physical equality: the engine taps a broadcast's n copies
   consecutively with the same physical message value, so the codec
   round-trip check runs once per payload instead of once per recipient.
   The oracle sums the protocol's own [M.bits], not the engine's billed
   [bits]; a copy billed at another size counts as a wire fault. Copies
   from a node [is_byz] names are counted as Byzantine traffic, outside
   the honest budgets. Every copy is forwarded to the JSONL trace and
   the text trace when they are on. *)
let wire_tap (type m)
    (module M : Repro_net.Network_intf.WIRE_MSG with type t = m) ~is_byz
    ~stats ~trace ~jsonl =
  let memo_msg = ref None and memo_bits = ref 0 and memo_ok = ref false in
  fun ~round ~src ~dst ~bits:billed (msg : m) ->
    (match !memo_msg with
    | Some m when m == msg -> ()
    | _ ->
        let bits = M.bits msg in
        let enc, blen = M.encode msg in
        memo_msg := Some msg;
        memo_bits := bits;
        memo_ok := blen = bits && M.decode enc = Some msg);
    let bits = !memo_bits in
    (if is_byz src then Oracle.observe_byz stats
     else Oracle.observe_honest stats ~bits ~wire_ok:(!memo_ok && billed = bits));
    (match jsonl with
    | Some t -> Trace.tap t ~round ~src ~dst ~bits:billed msg
    | None -> ());
    match trace with
    | Some buf -> trace_line buf ~round ~src ~dst M.pp msg
    | None -> ()

let run_crash ?trace ?jsonl ?shards (s : Schedule.t) : Oracle.verdict =
  let ids = crash_ids_of s in
  let params = CR.experiment_params in
  let round_bound = crash_round_bound ~n:s.n in
  let stats = Oracle.new_stats () in
  let tap =
    wire_tap (module CR.Msg) ~is_byz:(fun _ -> false) ~stats ~trace ~jsonl
  in
  match
    CR.Net.run ~ids
      ~crash:(CR.Net.Crash.scripted (scripted_events s))
      ~tap
      ?on_crash:(Option.map Trace.on_crash jsonl)
      ?on_decide:(Option.map Trace.on_decide jsonl)
      ?on_round_end:(Option.map Trace.on_round_end jsonl)
      ~max_rounds:(round_bound + 8)
      ~seed:s.seed ?shards ~program:(CR.program params) ()
  with
  | res ->
      Option.iter (fun t -> Trace.finish t res.Engine.metrics) jsonl;
      Oracle.check (crash_expectations s) (Runner.assess res) res.metrics stats
  | exception Engine.Max_rounds_exceeded _ ->
      Oracle.no_termination ~round_bound
  | exception e -> Oracle.crashed_run e

let run_byz ?trace ?jsonl ?shards (s : Schedule.t) : Oracle.verdict =
  let ids = byz_ids_of s in
  let n = s.n in
  let params =
    {
      BR.namespace = s.namespace;
      shared_seed = s.seed lxor 0x5aed;
      epsilon0 = 0.1;
      pool_probability = `Fixed (Experiment.committee_pool_probability ~n);
      committee = BR.Shared_pool;
      reconcile = BR.Fingerprint_dnc;
      consensus = BR.Phase_king_consensus;
    }
  in
  let behaviors =
    List.map (fun { Schedule.bz_id; bz_behavior } -> (bz_id, bz_behavior)) s.byz
  in
  let byz =
    match behaviors with
    | [] -> None
    | _ ->
        let rng = Rng.of_seed (s.seed lxor 0xb42) in
        Some
          ( List.map fst behaviors,
            Byz_strategies.scripted params ~rng ~ids ~behaviors )
  in
  (* Ascending, for an int-typed membership test per tapped copy. *)
  let byz_set = Array.of_list (List.map fst behaviors) in
  Array.sort Int.compare byz_set;
  let stats = Oracle.new_stats () in
  let tap =
    wire_tap (module BR.Msg)
      ~is_byz:(fun src -> Repro_util.Sorted.index byz_set src >= 0)
      ~stats ~trace ~jsonl
  in
  match
    BR.Net.run ~ids ?byz
      ~crash:(BR.Net.Crash.scripted (scripted_events s))
      ~tap
      ?on_crash:(Option.map Trace.on_crash jsonl)
      ?on_decide:(Option.map Trace.on_decide jsonl)
      ?on_round_end:(Option.map Trace.on_round_end jsonl)
      ~max_rounds:byz_round_bound
      ~seed:s.seed ?shards ~program:(BR.program params) ()
  with
  | res ->
      Option.iter (fun t -> Trace.finish t res.Engine.metrics) jsonl;
      Oracle.check (byz_expectations s) (Runner.assess res) res.metrics stats
  | exception Engine.Max_rounds_exceeded _ ->
      Oracle.no_termination ~round_bound:byz_round_bound
  | exception e -> Oracle.crashed_run e

let run ?trace ?jsonl ?shards (s : Schedule.t) =
  match s.algo with
  | Schedule.Crash -> run_crash ?trace ?jsonl ?shards s
  | Schedule.Byz -> run_byz ?trace ?jsonl ?shards s

(* {2 Generation} *)

let generate config index =
  (* [Experiment]'s trial-seed schedule, so trial [i] of a campaign is
     reproducible in isolation from the seed recorded in its schedule. *)
  let seed = Experiment.trial_seed ~seed:config.seed index in
  let rng = Rng.of_seed (seed lxor 0xf5eed) in
  let base =
    {
      Schedule.algo = config.algo;
      n = config.n;
      namespace = config.namespace;
      seed;
      crashes = [];
      byz = [];
    }
  in
  let f = Rng.int rng (config.fault_budget + 1) in
  match config.algo with
  | Schedule.Crash ->
      let ids = crash_ids_of base in
      let victims = Rng.sample_without_replacement rng f ids in
      let round_bound = max 1 (crash_round_bound ~n:config.n) in
      let crashes =
        Array.to_list victims
        |> List.map (fun v ->
               {
                 Schedule.cr_round = Rng.int rng round_bound;
                 cr_victim = v;
                 cr_delivery =
                   (match Rng.int rng 3 with
                   | 0 -> Schedule.All
                   | 1 -> Schedule.Nothing
                   | _ -> Schedule.Subset (Rng.int rng 1_000_000));
               })
      in
      Schedule.normalize { base with crashes }
  | Schedule.Byz ->
      let ids = byz_ids_of base in
      let victims = Rng.sample_without_replacement rng f ids in
      let all = Array.of_list Byz_strategies.all_behaviors in
      let byz =
        Array.to_list victims
        |> List.map (fun v ->
               {
                 Schedule.bz_id = v;
                 bz_behavior = all.(Rng.int rng (Array.length all));
               })
      in
      Schedule.normalize { base with byz }

(* {2 Campaigns} *)

type report = {
  index : int;
  schedule : Schedule.t;
  verdict : Oracle.verdict;
}

let campaign ?domains config =
  Repro_renaming.Parallel.map_list ?domains config.trials (fun i ->
      let schedule = generate config i in
      { index = i; schedule; verdict = run schedule })

let first_failure reports =
  List.find_opt (fun r -> Oracle.failed r.verdict) reports

(* {2 Replay} *)

let replay ?jsonl ?shards (s : Schedule.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== schedule ==\n";
  Buffer.add_string buf (Schedule.to_string s);
  Buffer.add_string buf "== trace ==\n";
  let v = run ~trace:buf ?jsonl ?shards s in
  Buffer.add_string buf "== verdict ==\n";
  (match v.Oracle.assessment with
  | Some a ->
      Printf.ksprintf (Buffer.add_string buf) "%s\n"
        (Format.asprintf "%a" Runner.pp a)
  | None -> Buffer.add_string buf "run aborted\n");
  (match v.Oracle.violations with
  | [] -> Buffer.add_string buf "ok: all invariants upheld\n"
  | vs ->
      List.iter
        (fun m -> Printf.ksprintf (Buffer.add_string buf) "VIOLATION: %s\n" m)
        vs);
  (Buffer.contents buf, v)
