(* Command-line driver: run any of the implemented renaming protocols on
   a synthetic workload and print the assessment.

     renaming crash    -n 64 --adversary killer -f 10
     renaming byz      -n 48 --attack split-world -f 5 --verbose
     renaming flooding -n 32 -f 4
     renaming halving  -n 32 -f 4
     renaming lower-bound -n 64 *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Parallel = Repro_renaming.Parallel
module A = Repro_renaming.Anonymous_renaming
module Trace = Repro_obs.Trace
open Cmdliner

let n_arg =
  Arg.(value & opt int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let namespace_arg =
  Arg.(
    value
    & opt int 0
    & info [ "N"; "namespace" ] ~docv:"NS"
        ~doc:"Original namespace size (default: 64·n).")

let f_arg =
  Arg.(
    value & opt int 0
    & info [ "f"; "faults" ] ~docv:"F" ~doc:"Number of faulty nodes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print the full identity assignment.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL run trace (schema run-trace/v1, one \
           record per round; see trace_cli) to $(docv). The file is \
           byte-identical across repeated runs with the same arguments.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "OCaml domains for this command (default: the RENAMING_DOMAINS \
           environment variable, else 1 for a single run). A single run \
           shards each round across $(docv) domains; a sweep fans its \
           runs across them, one shard per run. Results \
           (assessments, tables, traces) are bit-identical for every \
           value; only the wall-clock changes.")

(* Bad arguments are reported before anything runs: the problem, the
   subcommand's usage line, exit 2. *)
let usage_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "renaming %s: %s\nUsage: renaming %s [OPTION]…\n\
         Try 'renaming %s --help' for more information.\n"
        cmd msg cmd cmd;
      exit 2)
    fmt

(* An output file that cannot be created is reported before the run
   starts, on one line naming the path, exit 2. The probe neither
   truncates nor rewrites an existing file. *)
let check_writable cmd flag path =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error m ->
      Printf.eprintf "renaming %s: %s: cannot write %s\n" cmd flag m;
      exit 2

(* Every run needs [n >= 1] nodes, a namespace (0: the default) of at
   least [n] ids and at most [n] faults per configuration in [fs]; the
   domain count, when given, is at least 1; the trace file, when given,
   can be written. *)
let check_args cmd ~n ?(namespace = 0) ?trace ~fs ~domains () =
  if n < 1 then usage_error cmd "-n must be at least 1, got %d" n;
  if namespace <> 0 && namespace < n then
    usage_error cmd "--namespace must be at least n = %d, got %d" n namespace;
  List.iter
    (fun f ->
      if f < 0 || f > n then
        usage_error cmd "fault count must be in [0, n] = [0, %d], got %d" n f)
    fs;
  Option.iter
    (fun d ->
      if d < 1 then usage_error cmd "--domains must be at least 1, got %d" d)
    domains;
  Option.iter (check_writable cmd "--trace") trace

(* The trace file must hit the disk before [report], which exits non-zero
   on incorrect runs: a failing run's trace is exactly the one worth
   keeping. *)
let with_trace ~meta trace_path run =
  match trace_path with
  | None -> run None
  | Some path ->
      let t = Trace.create ~meta () in
      let a = run (Some t) in
      Trace.write_file t path;
      a

let resolve_namespace n namespace = if namespace = 0 then 64 * n else namespace

let report verbose (a : Runner.assessment) =
  if verbose then begin
    print_endline "original -> new";
    List.iter
      (fun (o, v) -> Printf.printf "  %8d -> %4d\n" o v)
      a.assignments
  end;
  Format.printf "%a@." Runner.pp a;
  if not (a.unique && a.strong) then exit 1

let crash_adversary_conv =
  Arg.enum
    [ ("none", `None); ("random", `Random); ("killer", `Killer);
      ("killer-partial", `Killer_partial); ("patient", `Patient) ]

let crash_cmd =
  let run n namespace f adversary seed verbose trace domains =
    check_args "crash" ~n ~namespace ?trace ~fs:[ f ] ~domains ();
    let namespace = resolve_namespace n namespace in
    let kind, adversary =
      if f = 0 then ("none", E.No_crash)
      else
        match adversary with
        | `None -> ("none", E.No_crash)
        | `Random -> ("random", E.Random_crashes f)
        | `Killer -> ("killer", E.Committee_killer f)
        | `Killer_partial -> ("killer-partial", E.Committee_killer_partial f)
        | `Patient -> ("patient", E.Patient_killer f)
    in
    let meta =
      [
        ("algo", `Str "this-work-crash"); ("n", `Int n);
        ("namespace", `Int namespace); ("f", `Int f);
        ("adversary", `Str kind); ("seed", `Int seed);
      ]
    in
    report verbose
      (with_trace ~meta trace (fun tr ->
           E.run_crash ?trace:tr ?shards:domains ~protocol:E.This_work_crash
             ~n ~namespace ~adversary ~seed ()))
  in
  let adversary_arg =
    Arg.(
      value
      & opt crash_adversary_conv `Random
      & info [ "adversary" ] ~docv:"KIND"
          ~doc:"Crash adversary: none, random, killer, killer-partial, \
                patient.")
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Run the crash-resilient committee renaming (§2).")
    Term.(
      const run $ n_arg $ namespace_arg $ f_arg $ adversary_arg $ seed_arg
      $ verbose_arg $ trace_arg $ domains_arg)

let byz_attack_conv =
  Arg.enum
    [ ("silent", `Silent); ("noise", `Noise); ("split-world", `Split) ]

let byz_cmd =
  let run n namespace f attack everyone seed verbose trace domains =
    check_args "byz" ~n ~namespace ?trace ~fs:[ f ] ~domains ();
    let namespace = resolve_namespace n namespace in
    let kind, adversary =
      if f = 0 then ("none", E.No_byz)
      else
        match attack with
        | `Silent -> ("silent", E.Silent_byz f)
        | `Noise -> ("noise", E.Noise_byz f)
        | `Split -> ("split-world", E.Split_world_byz f)
    in
    let protocol = if everyone then E.Everyone_byz else E.This_work_byz in
    let meta =
      [
        ("algo", `Str (E.byz_protocol_name protocol)); ("n", `Int n);
        ("namespace", `Int namespace); ("f", `Int f);
        ("adversary", `Str kind); ("seed", `Int seed);
      ]
    in
    report verbose
      (with_trace ~meta trace (fun tr ->
           E.run_byz ?trace:tr ?shards:domains ~protocol ~n ~namespace
             ~adversary ~seed ()))
  in
  let attack_arg =
    Arg.(
      value
      & opt byz_attack_conv `Split
      & info [ "attack" ] ~docv:"KIND"
          ~doc:"Byzantine strategy: silent, noise, split-world.")
  in
  let everyone_arg =
    Arg.(
      value & flag
      & info [ "everyone" ]
          ~doc:"Use committee = all nodes (the all-to-all ablation).")
  in
  Cmd.v
    (Cmd.info "byz"
       ~doc:"Run the Byzantine-resilient order-preserving renaming (§3).")
    Term.(
      const run $ n_arg $ namespace_arg $ f_arg $ attack_arg $ everyone_arg
      $ seed_arg $ verbose_arg $ trace_arg $ domains_arg)

let baseline_run cmd protocol n namespace f seed verbose trace domains =
  check_args cmd ~n ~namespace ?trace ~fs:[ f ] ~domains ();
  let namespace = resolve_namespace n namespace in
  let kind, adversary =
    if f = 0 then ("none", E.No_crash) else ("random", E.Random_crashes f)
  in
  let meta =
    [
      ("algo", `Str (E.crash_protocol_name protocol)); ("n", `Int n);
      ("namespace", `Int namespace); ("f", `Int f); ("adversary", `Str kind);
      ("seed", `Int seed);
    ]
  in
  report verbose
    (with_trace ~meta trace (fun tr ->
         E.run_crash ?trace:tr ?shards:domains ~protocol ~n ~namespace
           ~adversary ~seed ()))

let flooding_cmd =
  Cmd.v
    (Cmd.info "flooding" ~doc:"Run the full-information flooding baseline.")
    Term.(
      const (baseline_run "flooding" E.Flooding_baseline)
      $ n_arg $ namespace_arg $ f_arg $ seed_arg $ verbose_arg $ trace_arg
      $ domains_arg)

let halving_cmd =
  Cmd.v
    (Cmd.info "halving" ~doc:"Run the all-to-all interval-halving baseline.")
    Term.(
      const (baseline_run "halving" E.Halving_baseline)
      $ n_arg $ namespace_arg $ f_arg $ seed_arg $ verbose_arg $ trace_arg
      $ domains_arg)

let lower_bound_cmd =
  let run n seed =
    check_args "lower-bound" ~n ~fs:[] ~domains:None ();
    Printf.printf
      "collision probability of k silent nodes naming into [1..%d]:\n" n;
    List.iter
      (fun k ->
        if k <= n then
          Printf.printf "  k=%3d  empirical=%.3f  birthday=%.3f\n" k
            (A.collision_probability ~rule:A.Shared_hash ~seed
               ~namespace:(64 * n) ~k ~m:n ~trials:2000)
            (A.birthday_bound ~k ~m:n))
      [ 2; 4; 8; 16; 32; 64; 128 ];
    Printf.printf
      "\nsuccess probability with a message budget (Thm 1.4 shape):\n";
    List.iter
      (fun pct ->
        let budget = n * pct / 100 in
        Printf.printf "  budget=%3d (%3d%% of n)  success=%.3f\n" budget pct
          (A.budget_success_probability ~seed ~namespace:(64 * n) ~n ~budget
             ~trials:1000))
      [ 0; 25; 50; 75; 90; 100 ]
  in
  Cmd.v
    (Cmd.info "lower-bound"
       ~doc:"Empirical companion to the Ω(n) message lower bound (Thm 1.4).")
    Term.(const run $ n_arg $ seed_arg)

let fs_arg =
  Arg.(
    value
    & opt (list int) [ 0; 4; 8; 16 ]
    & info [ "fs" ] ~docv:"F,F,..." ~doc:"Fault counts to sweep over.")

let trials_arg =
  Arg.(
    value & opt int 3
    & info [ "trials" ] ~docv:"T" ~doc:"Trials per configuration (mean).")

let sweep_crash_cmd =
  let crash_protocol_conv =
    Arg.enum
      [ ("this-work", E.This_work_crash); ("halving", E.Halving_baseline);
        ("flooding", E.Flooding_baseline) ]
  in
  let run protocol n namespace fs trials seed domains =
    check_args "sweep-crash" ~n ~namespace ~fs ~domains ();
    if trials < 1 then
      usage_error "sweep-crash" "--trials must be at least 1, got %d" trials;
    let namespace = resolve_namespace n namespace in
    (* One fan-out over every f × trial run, one shard each. *)
    let runs =
      Parallel.map ?domains (List.length fs * trials) (fun j ->
          let f = List.nth fs (j / trials) in
          let adversary = if f = 0 then E.No_crash else E.Committee_killer f in
          E.run_crash ~shards:1 ~protocol ~n ~namespace ~adversary
            ~seed:(E.trial_seed ~seed (j mod trials)) ())
    in
    let rows =
      List.mapi
        (fun k f ->
          let a, rounds, messages, bits =
            E.averaged (List.init trials (fun i -> runs.((k * trials) + i)))
          in
          [
            string_of_int f;
            Printf.sprintf "%.0f" rounds;
            Printf.sprintf "%.0f" messages;
            Printf.sprintf "%.0f" bits;
            string_of_int a.Runner.decided;
          ])
        fs
    in
    E.print_table
      ~title:
        (Printf.sprintf "%s: f sweep at n=%d (mean of %d trials)"
           (E.crash_protocol_name protocol) n trials)
      ~header:[ "f"; "rounds"; "messages"; "bits"; "survivors (last)" ]
      ~rows
  in
  let protocol_arg =
    Arg.(
      value
      & opt crash_protocol_conv E.This_work_crash
      & info [ "protocol" ] ~docv:"P"
          ~doc:"this-work, halving or flooding.")
  in
  Cmd.v
    (Cmd.info "sweep-crash"
       ~doc:"Sweep the crash-failure count and tabulate costs.")
    Term.(
      const run $ protocol_arg $ n_arg $ namespace_arg $ fs_arg $ trials_arg
      $ seed_arg $ domains_arg)

let sweep_byz_cmd =
  let run n namespace fs seed domains =
    check_args "sweep-byz" ~n ~namespace ~fs ~domains ();
    let namespace = resolve_namespace n namespace in
    let rows =
      Parallel.map_list ?domains (List.length fs) (fun k ->
          let f = List.nth fs k in
          let adversary = if f = 0 then E.No_byz else E.Split_world_byz f in
          let a =
            E.run_byz ~shards:1 ~protocol:E.This_work_byz ~n ~namespace
              ~adversary ~seed ()
          in
          [
            string_of_int f;
            string_of_int a.Runner.rounds;
            string_of_int a.messages;
            string_of_int a.bits;
            (if a.unique && a.strong && a.order_preserving then "yes" else "NO");
          ])
    in
    E.print_table
      ~title:
        (Printf.sprintf
           "this-work-byz: split-world f sweep at n=%d (single runs)" n)
      ~header:[ "f"; "rounds"; "messages"; "bits"; "correct" ]
      ~rows
  in
  Cmd.v
    (Cmd.info "sweep-byz"
       ~doc:"Sweep the Byzantine count under the split-world attack.")
    Term.(
      const run $ n_arg $ namespace_arg $ fs_arg $ seed_arg $ domains_arg)

(* Cmdliner's parse errors (unknown option, malformed value) exit 2
   like [usage_error]; cmdliner has already printed the usage text on
   stderr. *)
let () =
  let info =
    Cmd.info "renaming" ~version:"1.0.0"
      ~doc:
        "Robust and scalable strong renaming with subquadratic bits — \
         simulator and experiments."
  in
  match
    Cmd.eval
      (Cmd.group info
         [
           crash_cmd; byz_cmd; flooding_cmd; halving_cmd; lower_bound_cmd;
           sweep_crash_cmd; sweep_byz_cmd;
         ])
  with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
