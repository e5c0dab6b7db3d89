(* End-to-end tests of the installed CLI binary: exact (seeded,
   deterministic) assessment lines and exit codes. *)

(* The test binary lives in _build/default/test/; the CLI is its sibling
   under bin/ (declared as a dune dep). Resolve relative to the running
   executable so the tests work from any cwd. *)
let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat dir "..") "bin") name

let cli = bin "renaming_cli.exe"
let trace_cli = bin "trace_cli.exe"

let run_capture_bin exe args =
  let tmp = Filename.temp_file "cli" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" exe args tmp in
  let code = Sys.command cmd in
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  (code, String.trim contents)

let run_capture args = run_capture_bin cli args

let last_line s =
  match List.rev (String.split_on_char '\n' s) with
  | last :: _ -> last
  | [] -> ""

let contains out needle =
  let rec go i =
    i + String.length needle <= String.length out
    && (String.sub out i (String.length needle) = needle || go (i + 1))
  in
  go 0

(* Each argument list must be a usage error: exit 2, usage text. *)
let expect_usage_errors exe cases =
  List.iter
    (fun args ->
      let code, out = run_capture_bin exe args in
      let name = Filename.basename exe ^ " " ^ args in
      Alcotest.(check int) (name ^ ": exit 2") 2 code;
      Alcotest.(check bool)
        (name ^ ": usage text") true
        (List.exists
           (fun l -> String.length l >= 6 && String.sub l 0 6 = "Usage:")
           (String.split_on_char '\n' out)))
    cases

let test_crash_subcommand () =
  let code, out = run_capture "crash -n 24 -f 4 --adversary killer --seed 3" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "assessment line"
    "n=24 decided=20 crashed=4 byz=0 unique=true strong=true order=true \
     rounds=45 msgs=7856 bits=131712"
    (last_line out)

let test_byz_subcommand () =
  let code, out = run_capture "byz -n 16 -f 2 --attack silent --seed 3" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "assessment line"
    "n=16 decided=14 crashed=0 byz=2 unique=true strong=true order=true \
     rounds=36 msgs=5264 bits=57148"
    (last_line out)

let test_halving_subcommand () =
  let code, out = run_capture "halving -n 12 --seed 2" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "assessment line"
    "n=12 decided=12 crashed=0 byz=0 unique=true strong=true order=true \
     rounds=36 msgs=5184 bits=81264"
    (last_line out)

let test_verbose_lists_assignments () =
  let code, out = run_capture "crash -n 4 --seed 1 -v" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints the mapping header" true
    (String.length out > 0
    && String.sub out 0 (String.length "original -> new")
       = "original -> new")

(* --trace + trace_cli, end to end: the JSONL file must be byte-identical
   across repeated runs and across domain counts, must diff clean through
   trace_cli, and a different seed must make trace_cli diff exit 1 naming
   the first diverging round. *)
let test_trace_determinism_and_diff () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cli_trace_%d_%s" (Unix.getpid ()) suffix)
  in
  let a = tmp "a.jsonl" and b = tmp "b.jsonl" and c = tmp "c.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ a; b; c ])
    (fun () ->
      let base = "crash -n 24 -f 4 --adversary killer" in
      let code, _ =
        run_capture
          (Printf.sprintf "%s --seed 3 --trace %s --domains 1" base a)
      in
      Alcotest.(check int) "run a exit 0" 0 code;
      let code, _ =
        run_capture
          (Printf.sprintf "%s --seed 3 --trace %s --domains 4" base b)
      in
      Alcotest.(check int) "run b exit 0" 0 code;
      let code, _ =
        run_capture (Printf.sprintf "%s --seed 4 --trace %s" base c)
      in
      Alcotest.(check int) "run c exit 0" 0 code;
      Alcotest.(check string) "byte-identical across --domains 1 vs 4"
        (read a) (read b);
      let code, out =
        run_capture_bin trace_cli (Printf.sprintf "diff %s %s" a b)
      in
      Alcotest.(check int) "trace diff identical: exit 0" 0 code;
      Alcotest.(check bool) "reports record count" true
        (last_line out = "identical: 45 round records");
      let code, out =
        run_capture_bin trace_cli (Printf.sprintf "diff %s %s" a c)
      in
      Alcotest.(check int) "trace diff diverged: exit 1" 1 code;
      Alcotest.(check bool) "names the first diverging round" true
        (String.length out >= 31
        && String.sub out 0 31 = "traces diverge at round 0\n  lef");
      let code, out = run_capture_bin trace_cli ("summary " ^ a) in
      Alcotest.(check int) "trace summary exit 0" 0 code;
      Alcotest.(check bool) "summary reconciles" true
        (last_line out = "summary:  reconciles with per-round rows");
      let code, _ =
        run_capture_bin trace_cli "summary /nonexistent/path.jsonl"
      in
      Alcotest.(check int) "unreadable input: exit 2" 2 code)

(* OCAMLRUNPARAM=R randomizes hashtable hashing per process — the exact
   perturbation the lint D2 rule guards against statically. Two R-mode
   processes (different hash seeds) and one default-mode process must
   all write byte-identical traces; the byz path is the one whose
   distribution tally used to depend on iteration order. *)
let test_trace_byte_identical_under_runparam_r () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cli_rparam_%d_%s" (Unix.getpid ()) suffix)
  in
  let a = tmp "r1.jsonl" and b = tmp "r2.jsonl" and c = tmp "plain.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ a; b; c ])
    (fun () ->
      let base = "byz -n 16 -f 2 --attack silent --seed 3 --trace" in
      let code, _ =
        run_capture_bin ("OCAMLRUNPARAM=R " ^ cli)
          (Printf.sprintf "%s %s" base a)
      in
      Alcotest.(check int) "R-mode run 1 exit 0" 0 code;
      let code, _ =
        run_capture_bin ("OCAMLRUNPARAM=R " ^ cli)
          (Printf.sprintf "%s %s" base b)
      in
      Alcotest.(check int) "R-mode run 2 exit 0" 0 code;
      let code, _ = run_capture (Printf.sprintf "%s %s" base c) in
      Alcotest.(check int) "default-mode run exit 0" 0 code;
      Alcotest.(check string) "R vs R byte-identical" (read a) (read b);
      Alcotest.(check string) "R vs default byte-identical" (read a) (read c))

(* The split-world Byzantine trace, pinned by digest: every committee
   round's envelopes and bit counts, byte for byte. *)
let test_byz_split_world_trace_pinned () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cli_byz_split_%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, out =
        run_capture
          ("byz -n 24 -f 3 --attack split-world --seed 11 --trace " ^ path)
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check string) "assessment line"
        "n=24 decided=21 crashed=0 byz=3 unique=true strong=true order=true \
         rounds=1547 msgs=336201 bits=3380663"
        (last_line out);
      Alcotest.(check string) "trace md5" "60047379a4a31e30bbfe71b7f5da6e6f"
        (Digest.to_hex (Digest.file path)))

let test_unknown_subcommand_fails () =
  let code, _ = run_capture "frobnicate" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Bad sizes and ports are usage errors: exit 2 with usage text, before
   any host process is forked or any socket is opened. Options cmdliner
   cannot parse exit the same way. *)
let test_net_node_bad_arguments () =
  expect_usage_errors (bin "net_node_cli.exe")
    [
      "local -n 0";
      "local -n 8 --hosts 9";
      "local --hosts 0";
      "coord --hosts 0";
      "coord --port 70000";
      "node --connect 127.0.0.1:abc --host-index 0";
      "node --connect 127.0.0.1:0 --host-index 0";
      "node --connect nosuchhost.invalid:7421 --host-index 0";
      "local --algo crash -n 8 -N 4 --hosts 2";
      (* cmdliner parse errors *)
      "local --bogus";
      "local -n abc";
      "local --algo foo";
      "node";
      (* options coord and local do not take *)
      "local --latency-ms 5";
      "local --jitter-ms 5";
      "local --overlay-fanout 2";
    ]

(* A refused connect and a port already bound are not usage errors: one
   line naming the address and the error, exit 1. The refused port was
   bound by this test and closed again; the busy one is held listening
   by this test while the coordinator tries it. *)
let test_net_node_socket_errors () =
  let loopback_socket () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> (fd, port)
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let expect args address =
    let code, out = run_capture_bin (bin "net_node_cli.exe") args in
    Alcotest.(check int) (args ^ ": exit 1") 1 code;
    Alcotest.(check int) (args ^ ": one line") 1
      (List.length (String.split_on_char '\n' out));
    Alcotest.(check bool) (args ^ ": names " ^ address) true
      (contains out address)
  in
  let closed, port = loopback_socket () in
  Unix.close closed;
  expect
    (Printf.sprintf "node --connect 127.0.0.1:%d --host-index 0" port)
    (Printf.sprintf "127.0.0.1:%d" port);
  let busy, port = loopback_socket () in
  Unix.listen busy 1;
  Fun.protect
    ~finally:(fun () -> Unix.close busy)
    (fun () ->
      expect
        (Printf.sprintf "coord --port %d" port)
        (Printf.sprintf "127.0.0.1:%d" port))

(* The coordinator's per-copy hook ([serve]'s [?on_message], which
   feeds the oracles) must not allocate per billed message: an n=256
   crash run bills 387,072 messages, and the coordinator process must
   allocate fewer words than that in all. The runtime prints
   [allocated_words] at exit under [v=0x400]; the forked hosts leave by
   [Unix._exit] and print nothing. It read 2,826,208 while the hook
   built a closure per copy. *)
let test_net_node_coordinator_allocation () =
  let code, out =
    run_capture_bin
      ("OCAMLRUNPARAM=v=0x400 " ^ bin "net_node_cli.exe")
      "local -n 256 --hosts 2 --seed 1"
  in
  Alcotest.(check int) "exit 0" 0 code;
  let lines = String.split_on_char '\n' out in
  let msgs =
    List.find_map
      (fun w -> Scanf.sscanf_opt w "msgs=%d%!" Fun.id)
      (List.concat_map (String.split_on_char ' ') lines)
  in
  Alcotest.(check (option int)) "billed messages" (Some 387_072) msgs;
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "allocated_words: %d" Fun.id)
      lines
  with
  | None -> Alcotest.fail "no allocated_words line"
  | Some words ->
      Alcotest.(check bool)
        (Printf.sprintf "%d allocated words < 387072 billed messages" words)
        true (words < 387_072)

(* renaming_cli rejects impossible sizes and counts the same way, before
   any run starts. *)
let test_renaming_bad_arguments () =
  expect_usage_errors cli
    [
      "crash --domains 0";
      "crash -n 0";
      "crash -n 8 -f 9";
      "crash -n 8 -N 4";
      "halving -n 8 -N 4";
      "byz -n 3 -f 5";
      "halving -n 4 -f 5";
      "flooding --domains 0";
      "lower-bound -n 0";
      "sweep-crash -n 8 --fs 0,9";
      "sweep-crash --trials 0";
      "sweep-byz --domains 0";
      (* cmdliner parse errors *)
      "crash --bogus";
      "crash --shards 2";
      "sweep-crash --shards 2";
      "crash -n abc";
      "byz --attack nosuch";
    ]

(* fuzz_cli validates sizes and the trial count the same way. *)
let test_fuzz_bad_arguments () =
  expect_usage_errors (bin "fuzz_cli.exe")
    [
      "--algo crash -n 0 --trials 1";
      "-n 8 --namespace 3";
      "--trials 0";
      "--domains 0";
      (* cmdliner parse errors *)
      "-n abc";
      "--bogus";
      "--shards 2";
    ]

(* trace_cli and lint_cli map cmdliner's parse errors (unknown option,
   missing file argument, malformed value) to exit 2 as well. lint_cli
   has no rule-selection or baseline options. *)
let test_trace_lint_bad_arguments () =
  expect_usage_errors trace_cli [ "--bogus"; "summary"; "diff a" ];
  expect_usage_errors (bin "lint_cli.exe")
    [
      "--bogus";
      "--format nope lib";
      "--disable D1 lib";
      "--baseline x.json lib";
    ]

(* An output path that cannot be created is rejected before the run:
   exit 2 and one line on stderr naming the path, no assessment. *)
let test_unwritable_output () =
  List.iter
    (fun (exe, args, path) ->
      let code, out = run_capture_bin (bin exe) args in
      let name = exe ^ " " ^ args in
      Alcotest.(check int) (name ^ ": exit 2") 2 code;
      Alcotest.(check int) (name ^ ": one line") 1
        (List.length (String.split_on_char '\n' out));
      Alcotest.(check bool) (name ^ ": names the path") true
        (contains out path))
    [
      ( "renaming_cli.exe",
        "crash -n 8 --trace /nonexistent/x.jsonl",
        "/nonexistent/x.jsonl" );
      ( "net_node_cli.exe",
        "local --algo crash -n 8 --hosts 2 --bits-out /nonexistent/x.json",
        "/nonexistent/x.json" );
      ( "fuzz_cli.exe",
        "--replay corpus/byz_mixed.sched --trace /nonexistent/x.jsonl",
        "/nonexistent/x.jsonl" );
      ( "fuzz_cli.exe",
        "--algo crash -n 8 --trials 1 --out /nonexistent/x.sched",
        "/nonexistent/x.sched" );
    ]

(* fuzz_cli writes [--out] only when a campaign fails, so probing that
   the path is writable must not leave an empty file behind. *)
let test_fuzz_out_probe_leaves_no_file () =
  let path = Filename.temp_file "fuzz_out" ".sched" in
  Sys.remove path;
  let code, _ =
    run_capture_bin (bin "fuzz_cli.exe")
      ("--algo crash -n 8 --trials 2 --out " ^ Filename.quote path)
  in
  Alcotest.(check int) "passing campaign: exit 0" 0 code;
  Alcotest.(check bool) "no file at the --out path" false
    (Sys.file_exists path)

let test_help () =
  let code, out = run_capture "--help" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "mentions subcommands" true
    (contains out "crash" && contains out "byz"
    && contains out "lower-bound")

let suite =
  ( "cli",
    [
      Alcotest.test_case "crash subcommand" `Quick test_crash_subcommand;
      Alcotest.test_case "byz subcommand" `Quick test_byz_subcommand;
      Alcotest.test_case "halving subcommand" `Quick test_halving_subcommand;
      Alcotest.test_case "verbose assignments" `Quick
        test_verbose_lists_assignments;
      Alcotest.test_case "trace determinism and trace_cli diff" `Quick
        test_trace_determinism_and_diff;
      Alcotest.test_case "trace byte-identical under OCAMLRUNPARAM=R" `Quick
        test_trace_byte_identical_under_runparam_r;
      Alcotest.test_case "byz split-world trace pinned" `Quick
        test_byz_split_world_trace_pinned;
      Alcotest.test_case "unknown subcommand fails" `Quick
        test_unknown_subcommand_fails;
      Alcotest.test_case "help" `Quick test_help;
      Alcotest.test_case "fuzz bad arguments exit 2" `Quick
        test_fuzz_bad_arguments;
      Alcotest.test_case "net_node bad arguments exit 2" `Quick
        test_net_node_bad_arguments;
      Alcotest.test_case "net_node socket errors exit 1" `Quick
        test_net_node_socket_errors;
      Alcotest.test_case "net_node coordinator allocation per copy" `Quick
        test_net_node_coordinator_allocation;
      Alcotest.test_case "renaming bad arguments exit 2" `Quick
        test_renaming_bad_arguments;
      Alcotest.test_case "trace and lint bad arguments exit 2" `Quick
        test_trace_lint_bad_arguments;
      Alcotest.test_case "unwritable output exit 2" `Quick
        test_unwritable_output;
      Alcotest.test_case "fuzz --out probe leaves no file" `Quick
        test_fuzz_out_probe_leaves_no_file;
    ] )
