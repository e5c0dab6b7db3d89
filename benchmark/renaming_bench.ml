(* The repository benchmark: four workloads, one command, end-to-end and
   per-layer metrics (README.md in this directory; BENCHMARK.json at the
   root lists the metrics and their bounds).

     renaming_bench [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                    [--out F] [--smoke]
     renaming_bench --compare A.json B.json

   Without --workload every workload runs in a fresh child process (this
   binary, re-executed), so heap state never carries over from one
   workload to the next. With --workload the process runs that workload:
   set-up three times, then one timed run per input of a window whose
   size follows from T and the workload's nominal run cost alone, never
   from how fast the runs go, so every commit measures the same inputs.
   Every run is checked for correctness. The last line on stdout is one
   JSON object {correct, attempted, failed, metrics} that holds the
   end-to-end metrics, or with --trace 1 the per-layer ones.

   Measurement is from outside the library, around the calls into each
   layer's public functions: a wrapper around Network_intf.S given to the
   protocols' Make_node functors, a wrapped WIRE_MSG codec given to
   Socket_net.Host, wrapped adversary callbacks, the engine's
   ?alloc_probe and ?on_round_end hooks, Gc.quick_stat, Unix.times and
   /proc/self/io. The runtime keeps its default GC settings, as the CLIs
   do, and no domain is ever spawned (shards = 1 everywhere), which keeps
   Unix.fork legal. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]

module CP = Repro_crypto.Committee_pool
module CR = Repro_renaming.Crash_renaming
module BZ = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module SN = Repro_net.Socket_net
module Engine = Repro_sim.Engine
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats

(* {1 Clocks and process counters} *)

(* lint: allow D1 — benchmark wall clock, reported not replayed *)
let now () = Unix.gettimeofday ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Bytes this process has handed to write(2) and its relatives, sockets
   included; 0 where /proc is unavailable. *)
let wchar () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "wchar"; v ] -> float_of_string (String.trim v)
          | _ -> acc)
        0.
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.

(* A process's counters at one instant. [words] counts the minor heap's
   allocation, which [Gc.minor_words] reports to the word; under OCaml
   5.1 the major-heap and [Gc.counters] figures move only at
   collections, so direct major allocations are left out. *)
type mark = {
  wall : float;
  cpu : float;
  words : float;
  promoted : float;
  minors : int;
  majors : int;
  top_heap : int;
}

let mark () =
  let words = Gc.minor_words () in
  let s = Gc.quick_stat () in
  let wall = now () in
  let cpu = cpu_s () in
  {
    wall;
    cpu;
    words;
    promoted = s.Gc.promoted_words;
    minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections;
    top_heap = s.Gc.top_heap_words;
  }

(* {1 Probes}

   Accumulators the wrappers fill during one run. The float ones sit in a
   float-only record, so updating them never allocates: the wrappers run
   inside the measured program, and every allocation count must read the
   same whether the clocks are armed or not. *)

type clocks = {
  mutable proto_s : float;  (* node programs, outside network calls *)
  mutable proto_words : float;  (* minor words allocated there *)
  mutable resume_t : float;  (* when the running node program resumed *)
  mutable resume_w : float;
  mutable adv_s : float;  (* inside adversary callbacks *)
  mutable encode_s : float;
  mutable decode_s : float;
}

type counters = {
  mutable net_calls : int;
  mutable sized_entries : int;
  mutable observed : int;
  mutable encode_calls : int;
  mutable decode_calls : int;
}

let clk =
  {
    proto_s = 0.;
    proto_words = 0.;
    resume_t = 0.;
    resume_w = 0.;
    adv_s = 0.;
    encode_s = 0.;
    decode_s = 0.;
  }

let cnt =
  {
    net_calls = 0;
    sized_entries = 0;
    observed = 0;
    encode_calls = 0;
    decode_calls = 0;
  }

(* Clocks are read only on traced runs; counters always. *)
let armed = ref false

(* On a socket host, the exchange returns of this identity (the host's
   lowest slot) mark the round boundaries; -1 in the simulator, whose
   boundaries come from [?on_round_end]. *)
let watch_id = ref (-1)

(* Committee-emission words, filled through Crash_renaming's
   [?alloc_emit]. *)
let emit_words = ref 0.

(* One row per round boundary, in arrays allocated before the run: the
   boundary's time and, when armed, the cumulative accumulators, so a
   round's layer figures are differences of consecutive rows. *)
type rounds = {
  mutable len : int;
  mutable t : float array;
  mutable proto : float array;
  mutable adv : float array;
  mutable wire : float array;
  mutable calls : int array;
  mutable sized : int array;
  mutable observed_r : int array;
}

let rb =
  {
    len = 0;
    t = [||];
    proto = [||];
    adv = [||];
    wire = [||];
    calls = [||];
    sized = [||];
    observed_r = [||];
  }

let grow cap =
  let f a = Array.append a (Array.make (cap - Array.length a) 0.) in
  let i a = Array.append a (Array.make (cap - Array.length a) 0) in
  rb.t <- f rb.t;
  rb.proto <- f rb.proto;
  rb.adv <- f rb.adv;
  rb.wire <- f rb.wire;
  rb.calls <- i rb.calls;
  rb.sized <- i rb.sized;
  rb.observed_r <- i rb.observed_r

let round_end () =
  if rb.len = Array.length rb.t then grow ((2 * rb.len) + 256);
  let i = rb.len in
  rb.t.(i) <- now ();
  if !armed then begin
    rb.proto.(i) <- clk.proto_s;
    rb.adv.(i) <- clk.adv_s;
    rb.wire.(i) <- clk.encode_s +. clk.decode_s
  end;
  rb.calls.(i) <- cnt.net_calls;
  rb.sized.(i) <- cnt.sized_entries;
  rb.observed_r.(i) <- cnt.observed;
  rb.len <- i + 1

let on_round_end ~round:_ _ = round_end ()

let copy_rounds () =
  let s a = Array.sub a 0 rb.len in
  {
    len = rb.len;
    t = s rb.t;
    proto = s rb.proto;
    adv = s rb.adv;
    wire = s rb.wire;
    calls = s rb.calls;
    sized = s rb.sized;
    observed_r = s rb.observed_r;
  }

let reset () =
  clk.proto_s <- 0.;
  clk.proto_words <- 0.;
  clk.adv_s <- 0.;
  clk.encode_s <- 0.;
  clk.decode_s <- 0.;
  cnt.net_calls <- 0;
  cnt.sized_entries <- 0;
  cnt.observed <- 0;
  cnt.encode_calls <- 0;
  cnt.decode_calls <- 0;
  emit_words := 0.;
  rb.len <- 0;
  if Array.length rb.t < 4096 then grow 4096

(* A node program hands control to the network: charge it the time and
   the words since it last resumed. *)
let charge () =
  let w = Gc.minor_words () in
  clk.proto_words <- clk.proto_words +. (w -. clk.resume_w);
  if !armed then clk.proto_s <- clk.proto_s +. (now () -. clk.resume_t)

let resume () =
  if !armed then clk.resume_t <- now ();
  clk.resume_w <- Gc.minor_words ()

(* {1 Wrappers around the layers' public functions} *)

(* The node programs' network, each exchange-class call bracketed. *)
module Timed_net (N : Repro_net.Network_intf.S) = struct
  include N

  let call () =
    cnt.net_calls <- cnt.net_calls + 1;
    charge ()

  let back ctx inbox =
    resume ();
    if N.my_id ctx = !watch_id then round_end ();
    inbox

  let exchange ctx out =
    call ();
    back ctx (N.exchange ctx out)

  let multisend ctx ~dsts m =
    call ();
    back ctx (N.multisend ctx ~dsts m)

  let broadcast ctx m =
    call ();
    back ctx (N.broadcast ctx m)

  let skip_round ctx =
    call ();
    back ctx (N.skip_round ctx)

  let exchange_sized ctx ~dsts ~msgs ~sizes ~len =
    cnt.sized_entries <- cnt.sized_entries + len;
    call ();
    back ctx (N.exchange_sized ctx ~dsts ~msgs ~sizes ~len)
end

let timed_program program ctx =
  resume ();
  let r = program ctx in
  charge ();
  r

(* The crash protocol's codec, as the socket hosts see it. *)
module Timed_msg = struct
  include CR.Msg

  let encode m =
    cnt.encode_calls <- cnt.encode_calls + 1;
    if not !armed then CR.Msg.encode m
    else begin
      let t = now () in
      let r = CR.Msg.encode m in
      clk.encode_s <- clk.encode_s +. (now () -. t);
      r
    end

  let decode s =
    cnt.decode_calls <- cnt.decode_calls + 1;
    if not !armed then CR.Msg.decode s
    else begin
      let t = now () in
      let r = CR.Msg.decode s in
      clk.decode_s <- clk.decode_s +. (now () -. t);
      r
    end
end

module Crash_sim = CR.Make_node (Timed_net (CR.Net))
module Byz_sim = BZ.Make_node (Timed_net (BZ.Net))
module Host = SN.Host (Timed_msg)
module Crash_host = CR.Make_node (Timed_net (Host))

let rec envelopes acc = function
  | [] -> acc
  | (_, envs) :: tl -> envelopes (acc + List.length envs) tl

let timed_crash (adv : CR.Net.crash_adversary) : CR.Net.crash_adversary =
 fun obs ->
  cnt.observed <- cnt.observed + envelopes 0 obs.CR.Net.obs_outboxes;
  if not !armed then adv obs
  else begin
    let t = now () in
    let orders = adv obs in
    clk.adv_s <- clk.adv_s +. (now () -. t);
    orders
  end

let timed_strategy (s : BZ.Net.byz_strategy) : BZ.Net.byz_strategy =
 fun ~byz_id ~round ~inbox ->
  cnt.observed <- cnt.observed + List.length inbox;
  if not !armed then s ~byz_id ~round ~inbox
  else begin
    let t = now () in
    let out = s ~byz_id ~round ~inbox in
    clk.adv_s <- clk.adv_s +. (now () -. t);
    out
  end

(* {1 Workloads} *)

type kind =
  | Crash_sim of { killer : bool }
  | Byz_sim of { f : int }
  | Crash_net of { hosts : int }

(* [run_cost] is the nominal wall time of one timed run, in seconds, on
   the 2-vCPU x86 VM the benchmark was sized on. It only sizes the
   window of inputs (see [window]); it is never compared with a
   measurement. *)
type workload = { name : string; kind : kind; n : int; run_cost : float }

let workloads =
  [
    {
      name = "sim-nofault-1024";
      kind = Crash_sim { killer = false };
      n = 1024;
      run_cost = 0.25;
    };
    {
      name = "sim-killer-1024";
      kind = Crash_sim { killer = true };
      n = 1024;
      run_cost = 1.5;
    };
    { name = "sim-byz-128"; kind = Byz_sim { f = 2 }; n = 128; run_cost = 0.7 };
    {
      name = "net-crash-1024";
      kind = Crash_net { hosts = 2 };
      n = 1024;
      run_cost = 2.4;
    };
  ]

(* --smoke: every workload at toy size. *)
let smoke w =
  match w.kind with
  | Crash_sim _ | Crash_net _ -> { w with n = 64 }
  | Byz_sim _ -> { w with kind = Byz_sim { f = 1 }; n = 32 }

(* The number of timed inputs: what [seconds] buys at the nominal run
   cost, each input run twice when traced; two at smoke size. It depends
   on the arguments alone, so two commits given the same arguments
   measure the same inputs however fast either runs. *)
let window w ~seconds ~traced ~smoke =
  if smoke then 2
  else
    let per_input = if traced then 2. *. w.run_cost else w.run_cost in
    max 2 (int_of_float (seconds /. per_input))

(* One run's inputs. [seed] names the run and draws its identities;
   [coins] seeds the randomness of the protocol (the engine's node
   generators) and of the adversary. *)
type input = { seed : int; coins : int; ids : int array }

(* One checked run. [values] holds its counts and layer figures by metric
   name; the [_wall] entry is the time the layer shares divide. *)
type outcome = {
  seed : int;
  ok : bool;
  wall : float;
  start : float;
  periods : float array;  (* ms *)
  values : (string * float) list;
  host_top_heap : int;
  trace : rounds option;
  assessment : Runner.assessment option;
}

let failed_outcome seed =
  {
    seed;
    ok = false;
    wall = 0.;
    start = 0.;
    periods = [||];
    values = [];
    host_top_heap = 0;
    trace = None;
    assessment = None;
  }

let value o name = Option.value ~default:0. (List.assoc_opt name o.values)

(* The figures every backend reports. [layer_wall] is the time the
   layer shares divide: the run's wall time in the simulator, the summed
   host wall time on the socket backend. *)
let common_values (a : Runner.assessment) ~alloc_words ~layer_wall
    ~proto_s ~proto_words ~adv_s ~net_calls ~minors ~majors ~promoted =
  let msgs = a.Runner.messages and rounds = a.Runner.rounds in
  let net_s = layer_wall -. proto_s -. adv_s in
  [
    ("msgs", float_of_int msgs);
    ("bits", float_of_int a.Runner.bits);
    ("rounds", float_of_int rounds);
    ("n", float_of_int a.Runner.n);
    ("alloc_words", alloc_words);
    ("_wall", layer_wall);
    ("protocol.self_s", proto_s);
    ("protocol.net_calls", float_of_int net_calls);
    ("protocol.alloc_mwords", proto_words /. 1e6);
    ("network.self_s", net_s);
    ("network.ns_per_msg", 1e9 *. net_s /. float_of_int (max 1 msgs));
    ("network.us_per_round", 1e6 *. net_s /. float_of_int (max 1 rounds));
    ("gc.minor_collections", float_of_int minors);
    ("gc.major_collections", float_of_int majors);
    ("gc.promoted_mwords", promoted /. 1e6);
  ]

let crash_values ~sized ~emit ~proto_words =
  [
    ("crash_renaming.sized_entries", float_of_int sized);
    ("crash_renaming.emit_mwords", emit /. 1e6);
    ("crash_renaming.consume_mwords", (proto_words -. emit) /. 1e6);
  ]

(* Runs one simulator execution under the probes. *)
let sim_outcome ~seed ~crash_protocol ~adversary exec =
  let probe = Engine.alloc_probe () in
  reset ();
  let m0 = mark () in
  let t0 = now () in
  let res = exec probe in
  let m1 = mark () in
  let trace = if !armed then Some (copy_rounds ()) else None in
  let a = Runner.assess res in
  let wall = m1.wall -. t0 in
  let periods =
    Array.init rb.len (fun i ->
        1e3 *. (rb.t.(i) -. if i = 0 then t0 else rb.t.(i - 1)))
  in
  let values =
    common_values a ~alloc_words:(m1.words -. m0.words) ~layer_wall:wall
      ~proto_s:clk.proto_s ~proto_words:clk.proto_words ~adv_s:clk.adv_s
      ~net_calls:cnt.net_calls ~minors:(m1.minors - m0.minors)
      ~majors:(m1.majors - m0.majors) ~promoted:(m1.promoted -. m0.promoted)
    @ [
        ("engine.deliver_mwords", probe.Engine.ap_deliver /. 1e6);
        ("engine.book_mwords", probe.Engine.ap_book /. 1e6);
      ]
    @ (if crash_protocol then
         crash_values ~sized:cnt.sized_entries ~emit:!emit_words
           ~proto_words:clk.proto_words
       else [])
    @
    if adversary then
      [
        ("adversary.self_s", clk.adv_s);
        ("adversary.observed_envelopes", float_of_int cnt.observed);
      ]
    else []
  in
  {
    seed;
    ok = a.Runner.correct && Runner.reconciles a;
    wall;
    start = t0;
    periods;
    values;
    host_top_heap = 0;
    trace;
    assessment = Some a;
  }

(* Inputs derive from a seed as in Experiment.run_crash and
   Experiment.run_byz: a run whose [coins] equal its [seed] is the run
   renaming_cli makes for that seed, and set-up checks that on its
   warm-up run (see [experiment_matches]). *)
let crash_ids ~n ~seed =
  E.random_ids ~seed:(seed lxor 0x1d5) ~namespace:(64 * n) ~n

let byz_ids ~n ~seed =
  E.random_ids ~seed:(seed lxor 0x2e7) ~namespace:(64 * n) ~n

let byz_params ~n ~seed =
  {
    BZ.namespace = 64 * n;
    shared_seed = seed lxor 0x5aed;
    epsilon0 = 0.1;
    pool_probability = `Fixed (E.committee_pool_probability ~n);
    committee = BZ.Shared_pool;
    reconcile = BZ.Fingerprint_dnc;
    consensus = BZ.Phase_king_consensus;
  }

let sim_crash ~killer ~n (inp : input) =
  let crash =
    if killer then
      Some
        (timed_crash
           (CR.Net.Crash.committee_killer
              ~rng:(Rng.of_seed (inp.coins lxor 0xadce5))
              ~budget:(n / 4) ()))
    else None
  in
  let program =
    timed_program
      (Crash_sim.program ~alloc_emit:emit_words CR.experiment_params)
  in
  sim_outcome ~seed:inp.seed ~crash_protocol:true ~adversary:killer
    (fun probe ->
      CR.Net.run ~ids:inp.ids ?crash ~alloc_probe:probe ~on_round_end
        ~seed:inp.coins ~shards:1 ~program ())

let sim_byz ~f ~n (inp : input) =
  let seed = inp.seed and ids = inp.ids in
  let params = byz_params ~n ~seed in
  let byz_ids =
    Array.to_list
      (Rng.sample_without_replacement (Rng.of_seed (seed lxor 0xca410)) f ids)
  in
  let strategy =
    timed_strategy
      (BS.split_world params ~rng:(Rng.of_seed (seed lxor 0xb42)) ~ids)
  in
  let program = timed_program (Byz_sim.program params) in
  sim_outcome ~seed ~crash_protocol:false ~adversary:true (fun probe ->
      BZ.Net.run ~ids ~byz:(byz_ids, strategy) ~alloc_probe:probe
        ~on_round_end ~max_rounds:400_000 ~seed ~shards:1 ~program ())

(* {2 Socket backend} *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Runs [f] in a forked child; the text [f] returns comes back over a
   pipe. The child leaves through [_exit], never through this process's
   at_exit handlers. *)
let spawn f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match f () with
        | text ->
            write_all w text;
            0
        | exception e ->
            prerr_endline ("renaming_bench child: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      (pid, r)

(* Reads the child's text to end of file, then reaps the child. *)
let reap (pid, r) =
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status = Unix.WEXITED 0, text)

(* A host's report: one line per key, its numbers after it. *)
let report_line key vs =
  String.concat " " (key :: List.map (Printf.sprintf "%.17g") vs) ^ "\n"

let parse_report text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | key :: vs -> Some (key, Array.of_list (List.map float_of_string vs))
      | [] -> None)
    (String.split_on_char '\n' text)

let listen_loopback () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> failwith "listen_loopback: not an inet socket"

(* One host process: connect, run this host's slice of node fibers, and
   report the process counters, the probes and the round rows. *)
let host_main ~listen ~port ~hosts ~h ~ids =
  Unix.close listen;
  let n = Array.length ids in
  reset ();
  watch_id := ids.(fst (Repro_util.Shard.range ~n ~shards:hosts h));
  let io0 = wchar () in
  let m0 = mark () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Host.run ~fd ~host_index:h ~program:(fun ~extra:_ ->
      timed_program
        (Crash_host.program ~alloc_emit:emit_words CR.experiment_params));
  let m1 = mark () in
  let io1 = wchar () in
  let f = float_of_int in
  let rows a = Array.to_list (Array.sub a 0 rb.len) in
  String.concat ""
    [
      report_line "wall" [ m1.wall -. m0.wall ];
      report_line "cpu" [ m1.cpu -. m0.cpu ];
      report_line "io" [ io1 -. io0 ];
      report_line "words" [ m1.words -. m0.words ];
      report_line "promoted" [ m1.promoted -. m0.promoted ];
      report_line "minors" [ f (m1.minors - m0.minors) ];
      report_line "majors" [ f (m1.majors - m0.majors) ];
      report_line "top_heap" [ f m1.top_heap ];
      report_line "proto_s" [ clk.proto_s ];
      report_line "proto_words" [ clk.proto_words ];
      report_line "emit_words" [ !emit_words ];
      report_line "net_calls" [ f cnt.net_calls ];
      report_line "sized" [ f cnt.sized_entries ];
      report_line "encode_calls" [ f cnt.encode_calls ];
      report_line "decode_calls" [ f cnt.decode_calls ];
      report_line "encode_s" [ clk.encode_s ];
      report_line "decode_s" [ clk.decode_s ];
      report_line "round_t" (rows rb.t);
      report_line "round_proto" (rows rb.proto);
      report_line "round_wire" (rows rb.wire);
      report_line "round_calls" (List.map f (rows rb.calls));
      report_line "round_sized" (List.map f (rows rb.sized));
    ]

(* The simulator's run on the same inputs: a fault-free socket run must
   reproduce its assignments, messages, bits and rounds exactly — the
   check net_node_cli --check-sim makes. *)
let sim_reference (inp : input) =
  Runner.assess (CR.run ~ids:inp.ids ~seed:inp.coins ~shards:1 ())

let matches_reference (a : Runner.assessment) (r : Runner.assessment) =
  a.Runner.assignments = r.Runner.assignments
  && a.Runner.messages = r.Runner.messages
  && a.Runner.bits = r.Runner.bits
  && a.Runner.rounds = r.Runner.rounds

exception Deadline

(* [serve] waits on its hosts without a deadline of its own; bound it, so
   that a host dying before it connects fails the run instead of hanging
   the benchmark. *)
let with_deadline seconds f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

(* One socket run: fork the hosts, serve as coordinator here, reap. The
   run's wall time is what a [net_node_cli local] user waits for. *)
let net_crash ~hosts (inp : input) ~listen ~port =
  let seed = inp.seed and ids = inp.ids in
  let config = { SN.ids; seed = inp.coins; n_hosts = hosts; extra = "" } in
  let io0 = wchar () in
  let m0 = mark () in
  let children =
    List.init hosts (fun h ->
        spawn (fun () -> host_main ~listen ~port ~hosts ~h ~ids))
  in
  let c0 = cpu_s () in
  let served =
    match with_deadline 60 (fun () -> SN.serve ~listen ~config ()) with
    | res -> Ok res
    | exception e -> Error e
  in
  let coord_cpu = cpu_s () -. c0 in
  if Result.is_error served then
    List.iter
      (fun (pid, _) ->
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      children;
  let reaped = List.map reap children in
  let m1 = mark () in
  let io1 = wchar () in
  match served with
  | Error e ->
      prerr_endline ("renaming_bench: serve failed: " ^ Printexc.to_string e);
      failed_outcome seed
  | Ok res ->
      let reports = List.map (fun (_, text) -> parse_report text) reaped in
      let row r k = Option.value ~default:[||] (List.assoc_opt k r) in
      let scalar r k =
        let a = row r k in
        if Array.length a > 0 then a.(0) else 0.
      in
      let sum k = List.fold_left (fun acc r -> acc +. scalar r k) 0. reports in
      let count k = int_of_float (sum k) in
      let a = Runner.assess res.SN.run in
      let periods =
        Array.concat
          (List.map
             (fun r ->
               let t = row r "round_t" in
               Array.init
                 (max 0 (Array.length t - 1))
                 (fun i -> 1e3 *. (t.(i + 1) -. t.(i))))
             reports)
      in
      let wall = m1.wall -. m0.wall in
      let host_wall = sum "wall" and host_cpu = sum "cpu" in
      let proto_words = sum "proto_words" in
      let values =
        common_values a
          ~alloc_words:(m1.words -. m0.words +. sum "words")
          ~layer_wall:host_wall ~proto_s:(sum "proto_s") ~proto_words
          ~adv_s:0. ~net_calls:(count "net_calls")
          ~minors:(m1.minors - m0.minors + count "minors")
          ~majors:(m1.majors - m0.majors + count "majors")
          ~promoted:(m1.promoted -. m0.promoted +. sum "promoted")
        @ crash_values ~sized:(count "sized") ~emit:(sum "emit_words")
            ~proto_words
        @ [
            ("wire.encode_calls", sum "encode_calls");
            ("wire.decode_calls", sum "decode_calls");
            ("wire.encode_s", sum "encode_s");
            ("wire.decode_s", sum "decode_s");
            ("socket_net.coord_cpu_s", coord_cpu);
            ("socket_net.host_cpu_s", host_cpu);
            ("socket_net.host_idle_s", host_wall -. host_cpu);
            ("socket_net.bytes", io1 -. io0 +. sum "io");
          ]
      in
      (* Host 0's rows, in the simulator's row shape. *)
      let trace =
        match reports with
        | r0 :: _ when !armed ->
            let t = row r0 "round_t" in
            let ints k = Array.map int_of_float (row r0 k) in
            Some
              {
                len = Array.length t;
                t;
                proto = row r0 "round_proto";
                adv = Array.make (Array.length t) 0.;
                wire = row r0 "round_wire";
                calls = ints "round_calls";
                sized = ints "round_sized";
                observed_r = Array.make (Array.length t) 0;
              }
        | _ -> None
      in
      let hosts_ok = List.for_all fst reaped in
      if not hosts_ok then prerr_endline "renaming_bench: a host process failed";
      {
        seed;
        ok =
          hosts_ok && a.Runner.correct && Runner.reconciles a
          && matches_reference a (sim_reference inp);
        wall;
        start = m0.wall;
        periods;
        values;
        host_top_heap =
          List.fold_left
            (fun acc r -> max acc (int_of_float (scalar r "top_heap")))
            0 reports;
        trace;
        assessment = Some a;
      }

(* {1 Inputs, set-up and the timed loop} *)

(* A run's cost follows the size of its committee, which the protocols
   draw at random: from one seed to the next, messages vary by ~17% on
   the crash workloads and by ~57% on sim-byz-128. Left alone, every
   window would be a different workload. So the window is built to cost
   the same under every seed:
   - the crash workloads take run i's identities from seed S+i and its
     coins from i alone, the same under every seed (common random
     numbers). Their committees come from the node coins, so run i
     sends the same messages under every seed; its bits move by ~0.2%.
   - sim-byz-128 draws its committee from the identities (those in the
     shared candidate pool), so run i takes the first seed of S+i,
     S+i+k, S+i+2k, ... whose committee has the expected size n·p0
     (28 at n=128), and uses it for identities and coins alike. *)
let committee_target ~n =
  Float.to_int (Float.round (float_of_int n *. E.committee_pool_probability ~n))

let byz_committee ~n ~seed =
  let pool = BZ.pool_of_params (byz_params ~n ~seed) ~n in
  Array.fold_left
    (fun c id -> if CP.mem pool id then c + 1 else c)
    0 (byz_ids ~n ~seed)

(* Run [i] (from 1) of a window of [k] under seed [seed]. *)
let window_input w ~seed ~k i =
  match w.kind with
  | Crash_sim _ | Crash_net _ ->
      { seed = seed + i; coins = i; ids = crash_ids ~n:w.n ~seed:(seed + i) }
  | Byz_sim _ ->
      let target = committee_target ~n:w.n in
      let rec find s =
        if byz_committee ~n:w.n ~seed:s = target then s else find (s + k)
      in
      let s = find (seed + i) in
      { seed = s; coins = s; ids = byz_ids ~n:w.n ~seed:s }

(* The warm-up input is the same in every invocation, so set-up time
   does not depend on the window. *)
let setup_seed = 0

let warmup_input w =
  let seed = setup_seed in
  let ids =
    match w.kind with
    | Byz_sim _ -> byz_ids ~n:w.n ~seed
    | Crash_sim _ | Crash_net _ -> crash_ids ~n:w.n ~seed
  in
  { seed; coins = seed; ids }

(* What the runs of a workload share: the window's inputs, and the
   socket backend's listener. *)
type env = { inputs : input array; listener : (Unix.file_descr * int) option }

let run_one w env inp =
  match (w.kind, env.listener) with
  | Crash_sim { killer }, _ -> sim_crash ~killer ~n:w.n inp
  | Byz_sim { f }, _ -> sim_byz ~f ~n:w.n inp
  | Crash_net { hosts }, Some (listen, port) ->
      net_crash ~hosts inp ~listen ~port
  | Crash_net _, None -> invalid_arg "run_one: socket workload without listener"

(* Each run starts from a collected heap, as a fresh process would: what
   earlier runs left behind is not charged to it, and forked hosts do
   not inherit it. *)
let checked_run w env ~armed:arm (inp : input) =
  Gc.compact ();
  armed := arm;
  let o =
    try run_one w env inp
    with e ->
      prerr_endline ("renaming_bench: run failed: " ^ Printexc.to_string e);
      failed_outcome inp.seed
  in
  armed := false;
  o

(* Set-up: the window's inputs, the listener where the workload needs
   one, then one untimed warm-up run, which pays the cold costs (code
   paging, heap growth, lazily built tables) the timed runs should
   not. *)
let setup w ~seed ~k =
  let inputs = Array.init k (fun i -> window_input w ~seed ~k (i + 1)) in
  let listener =
    match w.kind with
    | Crash_net _ -> Some (listen_loopback ())
    | Crash_sim _ | Byz_sim _ -> None
  in
  let env = { inputs; listener } in
  (env, checked_run w env ~armed:false (warmup_input w))

let close_env env = Option.iter (fun (fd, _) -> Unix.close fd) env.listener

(* The warm-up run against Experiment's run for the same seed: the
   assignments, messages, bits and rounds must agree, so the input
   derivation above cannot drift from Experiment's unnoticed. *)
let experiment_matches w (warm : outcome) =
  let n = w.n and seed = setup_seed and namespace = 64 * w.n in
  let crash adversary =
    E.run_crash ~protocol:E.This_work_crash ~n ~namespace ~adversary ~seed
      ~shards:1 ()
  in
  let reference =
    match w.kind with
    | Crash_sim { killer = true } -> crash (E.Committee_killer (n / 4))
    | Crash_sim { killer = false } | Crash_net _ -> crash E.No_crash
    | Byz_sim { f } ->
        E.run_byz ~protocol:E.This_work_byz ~n ~namespace
          ~adversary:(E.Split_world_byz f) ~seed ~shards:1 ()
  in
  match warm.assessment with
  | Some a when matches_reference a reference -> true
  | _ ->
      prerr_endline
        "renaming_bench: the warm-up run differs from Experiment's run";
      false

(* Set-up runs [setup_reps] times in this process, and setup_s is the
   median: the first is cold, the others find the code paged in and the
   heap grown. The timed runs use the last set-up, whose warm-up run is
   also checked against Experiment. Returns the times of the set-ups
   that passed and the number that failed. *)
let setup_reps = 3

let timed_setups w ~seed ~k =
  let rec go r times failed =
    let t0 = now () in
    let env, warm = setup w ~seed ~k in
    let dt = now () -. t0 in
    let ok = warm.ok && (r < setup_reps || experiment_matches w warm) in
    let times = if ok then dt :: times else times in
    let failed = if ok then failed else failed + 1 in
    if r = setup_reps then (env, List.rev times, failed)
    else begin
      close_env env;
      go (r + 1) times failed
    end
  in
  go 1 [] 0

type measured = {
  setup_times : float list;
  setup_failed : int;
  plain : outcome list;  (* untraced runs *)
  traced : outcome list;
  overhead : float list;  (* per pair: traced wall / untraced wall - 1 *)
  mismatched : int;  (* pairs whose seed-determined values differ *)
}

(* Values that are a function of the seed alone: they must read the same
   with the clocks armed or not, and on every invocation. On the socket
   backend only counts of protocol events are held to that; allocation
   there is summed over three processes and is not pinned. *)
let exact_names = function
  | Crash_net _ ->
      [
        "msgs"; "bits"; "rounds"; "protocol.net_calls";
        "crash_renaming.sized_entries"; "wire.encode_calls";
        "wire.decode_calls";
      ]
  | Crash_sim _ | Byz_sim _ ->
      [
        "msgs"; "bits"; "rounds"; "alloc_words"; "protocol.net_calls";
        "protocol.alloc_mwords"; "crash_renaming.sized_entries";
        "crash_renaming.emit_mwords"; "crash_renaming.consume_mwords";
        "adversary.observed_envelopes"; "engine.deliver_mwords";
        "engine.book_mwords";
      ]

let is_exact kind name = List.exists (String.equal name) (exact_names kind)

(* One timed run per input of the window; traced, each input runs as a
   pair, untraced and traced, alternating which goes first. *)
let measure w ~seed ~k ~traced =
  let env, setup_times, setup_failed = timed_setups w ~seed ~k in
  let run ~armed inp = checked_run w env ~armed inp in
  let plain = ref [] and tr = ref [] and overhead = ref [] in
  let mismatched = ref 0 in
  Array.iteri
    (fun i (inp : input) ->
      if not traced then plain := run ~armed:false inp :: !plain
      else begin
        let u, t =
          if i land 1 = 0 then
            let u = run ~armed:false inp in
            (u, run ~armed:true inp)
          else
            let t = run ~armed:true inp in
            (run ~armed:false inp, t)
        in
        plain := u :: !plain;
        tr := t :: !tr;
        if u.ok && t.ok then begin
          let differ =
            List.filter
              (fun k -> not (Float.equal (value u k) (value t k)))
              (exact_names w.kind)
          in
          List.iter
            (fun k ->
              Printf.eprintf
                "renaming_bench: seed %d: %s reads %.17g untraced, %.17g traced\n%!"
                inp.seed k (value u k) (value t k))
            differ;
          if differ <> [] then incr mismatched;
          overhead := ((t.wall /. u.wall) -. 1.) :: !overhead
        end
      end)
    env.inputs;
  close_env env;
  {
    setup_times;
    setup_failed;
    plain = List.rev !plain;
    traced = List.rev !tr;
    overhead = List.rev !overhead;
    mismatched = !mismatched;
  }

(* {1 Metrics} *)

type stat = {
  name : string;
  unit : string;
  value : float;
  quartiles : (float * float) option;  (* p25, p75 *)
  n : int;
  bound : float option;
  exact : bool;
}

(* End-to-end metrics: name, unit, and for those BENCHMARK.json lists
   the bound, the share of the parent's median by which the metric may
   worsen before a change counts as a regression. Each bound is set from
   the spreads measured over ten seeds (README.md): about three times
   the largest for the counts, allocation and heap; for the times, which
   move with the machine's speed by up to 17%, the largest bound allowed.
   failed_frac is 0 on a good run, so it is reported but not listed. *)
let end_to_end =
  [
    ("setup_s", "s", Some 0.25);
    ("run_s", "s", Some 0.25);
    ("round_ms.p99", "ms", Some 0.25);
    ("alloc_mwords", "Mwords", Some 0.03);
    ("heap_peak_mb", "MB", Some 0.12);
    ("msgs_per_node", "msgs", Some 0.04);
    ("bits_per_node", "bits", Some 0.04);
    ("rounds", "rounds", Some 0.02);
    ("failed_frac", "ratio", None);
  ]

type combine = Median | Mean | Share | Overhead

(* Per-layer metrics, per run, from the traced runs. Only those every
   workload defines are listed in BENCHMARK.json (the last field); the
   rest print where their layer runs. [protocol] is the node programs
   (Crash_renaming, or Byzantine_renaming on sim-byz-128); [network] the
   backend below them (Engine, or on net-crash-1024 the Socket_net host
   runtime, codec and barrier wait, summed over hosts). *)
let per_layer =
  [
    ("protocol.self_s", "s", Median, true);
    ("protocol.share", "ratio", Share, true);
    ("protocol.net_calls", "count", Mean, true);
    ("protocol.alloc_mwords", "Mwords", Mean, true);
    ("crash_renaming.sized_entries", "count", Mean, false);
    ("crash_renaming.emit_mwords", "Mwords", Mean, false);
    ("crash_renaming.consume_mwords", "Mwords", Mean, false);
    ("network.self_s", "s", Median, true);
    ("network.share", "ratio", Share, true);
    ("network.ns_per_msg", "ns", Median, true);
    ("network.us_per_round", "us", Median, true);
    ("engine.deliver_mwords", "Mwords", Mean, false);
    ("engine.book_mwords", "Mwords", Mean, false);
    ("adversary.self_s", "s", Median, false);
    ("adversary.share", "ratio", Share, false);
    ("adversary.observed_envelopes", "count", Mean, false);
    ("wire.encode_calls", "count", Mean, false);
    ("wire.decode_calls", "count", Mean, false);
    ("wire.encode_s", "s", Median, false);
    ("wire.decode_s", "s", Median, false);
    ("socket_net.coord_cpu_s", "s", Median, false);
    ("socket_net.host_cpu_s", "s", Median, false);
    ("socket_net.host_idle_s", "s", Median, false);
    ("socket_net.bytes", "bytes", Mean, false);
    ("gc.minor_collections", "count", Mean, true);
    ("gc.major_collections", "count", Mean, true);
    ("gc.promoted_mwords", "Mwords", Mean, true);
    ("bench.trace_overhead", "ratio", Overhead, true);
  ]

let median_stat ?bound ?(exact = false) name unit = function
  | [] -> None
  | xs ->
      Some
        {
          name;
          unit;
          value = Stats.percentile xs 50.;
          quartiles = Some (Stats.percentile xs 25., Stats.percentile xs 75.);
          n = List.length xs;
          bound;
          exact;
        }

let single_stat ?bound ?(exact = false) name unit ~n value =
  if n = 0 then None
  else Some { name; unit; value; quartiles = None; n; bound; exact }

let mean_stat ?bound ?exact name unit xs =
  single_stat ?bound ?exact name unit ~n:(List.length xs)
    (if xs = [] then 0. else Stats.mean xs)

let e2e_stats w m ~attempted ~failed =
  let ok = List.filter (fun o -> o.ok) m.plain in
  let sim =
    match w.kind with Crash_net _ -> false | Crash_sim _ | Byz_sim _ -> true
  in
  let bound name =
    List.find_map
      (fun (k, _, b) -> if String.equal k name then b else None)
      end_to_end
  in
  let col f = List.map f ok in
  let per k d = col (fun o -> value o k /. value o d) in
  let periods = List.concat_map (fun o -> Array.to_list o.periods) ok in
  let heap_words =
    List.fold_left
      (fun acc o -> max acc o.host_top_heap)
      (Gc.quick_stat ()).Gc.top_heap_words ok
  in
  let median name unit xs = median_stat ?bound:(bound name) name unit xs in
  let mean ~exact name unit xs =
    mean_stat ?bound:(bound name) ~exact name unit xs
  in
  List.filter_map Fun.id
    [
      median "setup_s" "s" m.setup_times;
      median "run_s" "s" (col (fun o -> o.wall));
      single_stat ?bound:(bound "round_ms.p99") "round_ms.p99" "ms"
        ~n:(List.length periods)
        (if periods = [] then 0. else Stats.percentile periods 99.);
      mean ~exact:sim "alloc_mwords" "Mwords"
        (col (fun o -> value o "alloc_words" /. 1e6));
      single_stat ?bound:(bound "heap_peak_mb") "heap_peak_mb" "MB"
        ~n:(List.length ok)
        (8. *. float_of_int heap_words /. 1e6);
      mean ~exact:true "msgs_per_node" "msgs" (per "msgs" "n");
      mean ~exact:true "bits_per_node" "bits" (per "bits" "n");
      mean ~exact:true "rounds" "rounds" (col (fun o -> value o "rounds"));
      single_stat ?bound:(bound "failed_frac") ~exact:true "failed_frac" "ratio"
        ~n:attempted
        (float_of_int failed /. float_of_int (max 1 attempted));
    ]

let layer_stats w m =
  let runs = List.filter (fun o -> o.ok) m.traced in
  let has k = List.exists (fun o -> List.mem_assoc k o.values) runs in
  let col k = List.map (fun o -> value o k) runs in
  let sum k = List.fold_left ( +. ) 0. (col k) in
  List.filter_map
    (fun (name, unit, combine, _) ->
      let exact = is_exact w.kind name in
      match combine with
      | Median -> if has name then median_stat ~exact name unit (col name) else None
      | Mean -> if has name then mean_stat ~exact name unit (col name) else None
      | Share ->
          let part = String.sub name 0 (String.index name '.') ^ ".self_s" in
          if has part then
            single_stat name unit ~n:(List.length runs) (sum part /. sum "_wall")
          else None
      | Overhead -> median_stat name unit m.overhead)
    per_layer

(* {1 Output} *)

let out_dir = ".bench-out"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let format_stat s =
  String.concat " "
    (List.filter
       (fun x -> not (String.equal x ""))
       [
         Printf.sprintf "  %-30s %16.8g %-7s" s.name s.value s.unit;
         (match s.quartiles with
         | Some (a, b) -> Printf.sprintf "p25=%.6g p75=%.6g" a b
         | None -> "");
         Printf.sprintf "n=%d" s.n;
         (match s.bound with Some b -> Printf.sprintf "bound=%g" b | None -> "");
         (if s.exact then "exact" else "");
       ])

let stat_json s =
  ( s.name,
    Json.Obj
      ([
         ("unit", Json.Str s.unit);
         ("value", Json.Num s.value);
         ("n", Json.Num (float_of_int s.n));
         ("exact", Json.Bool s.exact);
       ]
      @ (match s.quartiles with
        | Some (a, b) -> [ ("p25", Json.Num a); ("p75", Json.Num b) ]
        | None -> [])
      @ match s.bound with Some b -> [ ("bound", Json.Num b) ] | None -> []) )

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let write_results path workloads =
  write_file path
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.Str "renaming-bench/v1");
            ("workloads", Json.Arr workloads);
          ])
    ^ "\n")

(* The traced runs as spans: one per run, one per round as its child,
   and under each round one per layer with the layer's self time and
   counts in that round. On net-crash-1024 the rounds are host 0's. *)
let write_spans path w ~origin runs =
  let buf = Buffer.create 4096 in
  let next = ref 0 in
  let span fields =
    incr next;
    Buffer.add_string buf
      (Json.to_string (Json.Obj (("id", Json.Num (float_of_int !next)) :: fields)));
    Buffer.add_char buf '\n';
    Json.Num (float_of_int !next)
  in
  let num x = Json.Num x and int x = Json.Num (float_of_int x) in
  let adversary, wire =
    match w.kind with
    | Crash_sim { killer } -> (killer, false)
    | Byz_sim _ -> (true, false)
    | Crash_net _ -> (false, true)
  in
  List.iter
    (fun o ->
      match o.trace with
      | None -> ()
      | Some r ->
          let run =
            span
              [
                ("parent", Json.Null); ("name", Json.Str "run");
                ("workload", Json.Str w.name); ("seed", int o.seed);
                ("start", num (o.start -. origin));
                ("end", num (o.start +. o.wall -. origin));
              ]
          in
          for i = 0 to r.len - 1 do
            let d a = a.(i) -. if i = 0 then 0. else a.(i - 1) in
            let di a = a.(i) - if i = 0 then 0 else a.(i - 1) in
            let start = if i = 0 then o.start else r.t.(i - 1) in
            let round =
              span
                [
                  ("parent", run); ("name", Json.Str "round"); ("round", int i);
                  ("start", num (start -. origin));
                  ("end", num (r.t.(i) -. origin));
                ]
            in
            let layer name fields =
              ignore
                (span ([ ("parent", round); ("name", Json.Str name) ] @ fields))
            in
            let proto = d r.proto and adv = d r.adv and wire_s = d r.wire in
            layer "protocol"
              [
                ("self_s", num proto); ("net_calls", int (di r.calls));
                ("sized_entries", int (di r.sized));
              ];
            if adversary then
              layer "adversary"
                [
                  ("self_s", num adv);
                  ("observed_envelopes", int (di r.observed_r));
                ];
            if wire then layer "wire" [ ("self_s", num wire_s) ];
            layer "network"
              [ ("self_s", num (r.t.(i) -. start -. proto -. adv -. wire_s)) ]
          done)
    runs;
  write_file path (Buffer.contents buf)

(* The last stdout line: the metrics BENCHMARK.json lists for this pass. *)
let result_line ~correct ~attempted ~failed stats listed =
  let metric (name, unit) =
    let v =
      match List.find_opt (fun s -> String.equal s.name name) stats with
      | Some s -> s.value
      | None -> 0.
    in
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj (List.map metric listed));
       ])

(* {1 Compare} *)

(* Two result files, one row per (workload, metric): exact values must
   be equal; a bounded metric's values may differ by at most its bound,
   and is unresolved when either side's own quartile spread exceeds it. *)
let compare_files fa fb =
  let load f =
    let j = Json.parse (In_channel.with_open_bin f In_channel.input_all) in
    match Json.member "workloads" j with Some (Json.Arr l) -> l | _ -> []
  in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k j =
    match Json.member k j with Some (Json.Num x) -> Some x | _ -> None
  in
  let flag k j = match Json.member k j with Some (Json.Bool b) -> b | _ -> false in
  let a = load fa and b = load fb in
  let failures = ref 0 in
  let row wl metric va vb change verdict =
    Printf.printf "%-18s %-30s %16s %16s %9s  %s\n" wl metric va vb change verdict
  in
  row "workload" "metric" "A" "B" "change" "verdict";
  let iqr s =
    match (num "p25" s, num "p75" s, num "value" s) with
    | Some p25, Some p75, Some v when v <> 0. -> (p75 -. p25) /. Float.abs v
    | _ -> 0.
  in
  List.iter
    (fun wa ->
      let wl = str "workload" wa in
      match List.find_opt (fun wb -> String.equal (str "workload" wb) wl) b with
      | None ->
          incr failures;
          row wl "-" "" "" "" "MISSING in B"
      | Some wb ->
          List.iter
            (fun section ->
              match (Json.member section wa, Json.member section wb) with
              | Some (Json.Obj ma), Some mb ->
                  List.iter
                    (fun (metric, sa) ->
                      match Json.member metric mb with
                      | None ->
                          incr failures;
                          row wl metric "" "" "" "MISSING in B"
                      | Some sb ->
                          let v s =
                            Option.value ~default:Float.nan (num "value" s)
                          in
                          let va = v sa and vb = v sb in
                          let change =
                            if va = 0. then if vb = 0. then 0. else Float.infinity
                            else (vb -. va) /. Float.abs va
                          in
                          let verdict =
                            if flag "exact" sa && flag "exact" sb then
                              if Float.equal va vb then "same"
                              else begin
                                incr failures;
                                "DIFF (exact)"
                              end
                            else
                              match num "bound" sa with
                              | None -> "-"
                              | Some bound ->
                                  if iqr sa > bound || iqr sb > bound then
                                    "unresolved"
                                  else if Float.abs change <= bound then "ok"
                                  else begin
                                    incr failures;
                                    Printf.sprintf "DIFFERS (bound %g)" bound
                                  end
                          in
                          row wl metric (Printf.sprintf "%.8g" va)
                            (Printf.sprintf "%.8g" vb)
                            (Printf.sprintf "%+.2f%%" (100. *. change))
                            verdict)
                    ma
              | _ -> ())
            [ "end_to_end"; "per_layer" ])
    a;
  Printf.printf "%d disagreement(s)\n" !failures;
  if !failures = 0 then 0 else 1

(* {1 Command line} *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable out : string option;
  mutable smoke : bool;
  mutable compare : (string * string) option;
}

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 20.

let usage =
  "usage: renaming_bench [--workload W] [--seed S] [--seconds T] [--trace 0|1]\n\
  \                      [--out F] [--smoke]\n\
  \       renaming_bench --compare A.json B.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : workload) -> w.name) workloads)
  ^ "\n"

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("renaming_bench: " ^ msg);
      prerr_string usage;
      exit 2)
    fmt

let parse_args argv =
  let o =
    {
      workload = None;
      seed = 41;
      seconds = default_seconds;
      traced = false;
      out = None;
      smoke = false;
      compare = None;
    }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some x when x >= 0 -> x
    | _ -> bad "%s expects a non-negative integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if
          not
            (List.exists (fun (w : workload) -> String.equal w.name v) workloads)
        then bad "unknown workload %S" v;
        o.workload <- Some v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> o.seconds <- s
        | _ -> bad "--seconds expects a positive number, got %S" v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.traced <- String.equal v "1";
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--compare" :: a :: b :: rest ->
        o.compare <- Some (a, b);
        go rest
    | ("-h" | "--help") :: _ ->
        print_string usage;
        exit 0
    | a :: _ -> bad "unknown or incomplete argument %S" a
  in
  go (List.tl (Array.to_list argv));
  o

let run_workload o name =
  let w = List.find (fun (w : workload) -> String.equal w.name name) workloads in
  let w = if o.smoke then smoke w else w in
  let origin = now () in
  let k = window w ~seconds:o.seconds ~traced:o.traced ~smoke:o.smoke in
  let m = measure w ~seed:o.seed ~k ~traced:o.traced in
  let timed = m.plain @ m.traced in
  let attempted = setup_reps + List.length timed in
  let failed =
    m.setup_failed
    + List.length (List.filter (fun x -> not x.ok) timed)
    + m.mismatched
  in
  let e2e = e2e_stats w m ~attempted ~failed in
  let layers = if o.traced then layer_stats w m else [] in
  (* Reported, not gated: on a shared machine the median of a few pairs
     can pass 10% with no change in the code, and at smoke size the
     clocks weigh more than the runs. *)
  List.iter
    (fun s ->
      if
        String.equal s.name "bench.trace_overhead"
        && s.value >= 0.10 && not o.smoke
      then
        Printf.eprintf "renaming_bench: tracing slowed the runs by %.1f%%\n"
          (100. *. s.value))
    layers;
  Printf.printf "== %s: seed %d, n=%d, %d timed runs%s, %d failed%s ==\n" w.name
    o.seed w.n (List.length m.plain)
    (if o.traced then " (each also traced)" else "")
    failed
    (if o.smoke then ", smoke size" else "");
  List.iter (fun s -> print_endline (format_stat s)) e2e;
  if o.traced then begin
    print_endline "  -- per layer, per run (traced runs) --";
    List.iter (fun s -> print_endline (format_stat s)) layers;
    ensure_dir out_dir;
    let path = Filename.concat out_dir (w.name ^ ".spans.jsonl") in
    write_spans path w ~origin m.traced;
    Printf.printf "  spans: %s\n" path
  end;
  Option.iter
    (fun path ->
      write_results path
        [
          Json.Obj
            [
              ("workload", Json.Str w.name);
              ("seed", Json.Num (float_of_int o.seed));
              ("n", Json.Num (float_of_int w.n));
              ("traced", Json.Bool o.traced);
              ("smoke", Json.Bool o.smoke);
              ("timed_runs", Json.Num (float_of_int (List.length m.plain)));
              ("attempted", Json.Num (float_of_int attempted));
              ("failed", Json.Num (float_of_int failed));
              ("end_to_end", Json.Obj (List.map stat_json e2e));
              ("per_layer", Json.Obj (List.map stat_json layers));
            ];
        ])
    o.out;
  let listed =
    if o.traced then
      List.filter_map
        (fun (k, u, _, l) -> if l then Some (k, u) else None)
        per_layer
    else
      List.filter_map
        (fun (k, u, b) -> Option.map (fun _ -> (k, u)) b)
        end_to_end
  in
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed (e2e @ layers) listed);
  if failed = 0 then 0 else 1

(* Every workload in a fresh child process: this binary, re-executed. *)
let run_all o =
  ensure_dir out_dir;
  let results =
    List.map
      (fun (w : workload) ->
        let file = Filename.concat out_dir (w.name ^ ".json") in
        if Sys.file_exists file then Sys.remove file;
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int o.seed; "--out"; file ]
          @ [ "--seconds"; Printf.sprintf "%.17g" o.seconds ]
          @ [ "--trace"; (if o.traced then "1" else "0") ]
          @ if o.smoke then [ "--smoke" ] else []
        in
        flush_all ();
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        let objs =
          match
            Json.member "workloads"
              (Json.parse (In_channel.with_open_bin file In_channel.input_all))
          with
          | Some (Json.Arr l) -> l
          | _ -> []
          | exception (Sys_error _ | Json.Error _) -> []
        in
        (status = Unix.WEXITED 0 && objs <> [], objs))
      workloads
  in
  let out = Option.value o.out ~default:(Filename.concat out_dir "results.json") in
  write_results out (List.concat_map snd results);
  Printf.printf "results: %s\n" out;
  if List.for_all fst results then 0 else 1

let () =
  let o = parse_args Sys.argv in
  match (o.compare, o.workload) with
  | Some (a, b), _ -> exit (compare_files a b)
  | None, Some name -> exit (run_workload o name)
  | None, None -> exit (run_all o)
