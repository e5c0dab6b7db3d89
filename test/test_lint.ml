(* The repro_lint pass itself: one positive + one allow-suppressed
   fixture per rule (test/lint/*.ml), path scoping, the sorted-sink
   sanction heuristic, report stability, the lint_cli exit-code
   contract, and — last, because Hashtbl.randomize is process-global —
   an in-process proof that the D2 fix removed the hashtable-order
   dependence from byz run traces. Everything goes through the project
   pass, the one lint_cli and [dune build @lint] run. *)

module Lint = Repro_lint.Lint
module Finding = Repro_lint.Finding
module Allowlist = Repro_lint.Allowlist
module E = Repro_renaming.Experiment
module Trace = Repro_obs.Trace

(* Fixtures and the CLI binary live next to the test executable in
   _build/default/{test/lint,bin}; resolve relative to the executable so
   cwd does not matter. *)
let exe_dir = Filename.dirname Sys.executable_name
let fixture name = Filename.concat (Filename.concat exe_dir "lint") name

let lint_cli =
  Filename.concat
    (Filename.concat (Filename.concat exe_dir "..") "bin")
    "lint_cli.exe"

let read path = In_channel.with_open_bin path In_channel.input_all

let contains haystack needle =
  let nn = String.length needle and nh = String.length haystack in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let rules_of findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Finding.t) -> f.Finding.rule) findings)

(* [lint_as filename source] lints one file as a project of its own,
   under the logical path [filename]: its findings and the number of
   findings an allow suppressed. *)
let lint_as filename source =
  let r = Lint.lint_project [ (filename, source) ] in
  (r.Lint.findings, r.Lint.suppressed)

let lint_fixture name = lint_as (fixture name) (read (fixture name))

let only rule findings =
  List.filter (fun (f : Finding.t) -> String.equal f.Finding.rule rule) findings

let check_fixture name ~expect_rule ~expect_count ~expect_suppressed =
  let findings, suppressed = lint_fixture name in
  Alcotest.(check int)
    (name ^ ": " ^ expect_rule ^ " count")
    expect_count
    (List.length (only expect_rule findings));
  Alcotest.(check int) (name ^ ": suppressed count") expect_suppressed
    suppressed

let test_d1 () =
  check_fixture "d1_pos.ml" ~expect_rule:"D1" ~expect_count:6
    ~expect_suppressed:0;
  check_fixture "d1_allow.ml" ~expect_rule:"D1" ~expect_count:0
    ~expect_suppressed:6

let test_d2 () =
  check_fixture "d2_pos.ml" ~expect_rule:"D2" ~expect_count:4
    ~expect_suppressed:0;
  (* Three sanctioned-by-sort bindings produce neither findings nor
     suppressions; the two annotated ones count as suppressed. *)
  check_fixture "d2_allow.ml" ~expect_rule:"D2" ~expect_count:0
    ~expect_suppressed:2

let test_d3 () =
  check_fixture "d3_pos.ml" ~expect_rule:"D3" ~expect_count:4
    ~expect_suppressed:0;
  check_fixture "d3_allow.ml" ~expect_rule:"D3" ~expect_count:0
    ~expect_suppressed:2

(* D3's stdlib generics are path-scoped to the runtime libraries: the
   same file is dirty under lib/net, clean under lib/check (outside the
   nm guard's set) and at its real test/lint path. *)
let test_d3_generics () =
  let source = read (fixture "d3_generic.ml") in
  let findings, suppressed = lint_as "lib/net/d3_generic.ml" source in
  Alcotest.(check int) "under lib/net: 6 D3 findings" 6
    (List.length (only "D3" findings));
  Alcotest.(check int) "under lib/net: 1 suppressed" 1 suppressed;
  List.iter
    (fun filename ->
      let findings, _ = lint_as filename source in
      Alcotest.(check int) (filename ^ ": clean") 0
        (List.length (only "D3" findings)))
    [ "lib/check/d3_generic.ml"; fixture "d3_generic.ml" ]

(* D4 is path-scoped: the same file is dirty under lib/core and clean
   under its real test/lint path. *)
let test_d4 () =
  let source = read (fixture "d4_pos.ml") in
  let findings, _ = lint_as "lib/core/d4_pos.ml" source in
  Alcotest.(check int) "d4 under lib/core: 4 D4 findings" 4
    (List.length (only "D4" findings));
  let findings, _ = lint_fixture "d4_pos.ml" in
  Alcotest.(check int) "d4 outside domain-shared dirs: clean" 0
    (List.length (only "D4" findings));
  let allow_src = read (fixture "d4_allow.ml") in
  let findings, suppressed = lint_as "lib/sim/d4_allow.ml" allow_src in
  Alcotest.(check int) "d4_allow: no D4 findings" 0
    (List.length (only "D4" findings));
  Alcotest.(check int) "d4_allow: 3 suppressed" 3 suppressed

let test_d5 () =
  check_fixture "d5_pos.ml" ~expect_rule:"D5" ~expect_count:5
    ~expect_suppressed:0;
  check_fixture "d5_allow.ml" ~expect_rule:"D5" ~expect_count:0
    ~expect_suppressed:3

let test_d1_path_exemptions () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  let dirty, _ = lint_as "lib/sim/clock.ml" src in
  Alcotest.(check int) "gettimeofday flagged elsewhere" 1
    (List.length (only "D1" dirty));
  let clean, _ = lint_as "lib/obs/trace.ml" src in
  Alcotest.(check int) "exempt in the opt-in timing path" 0
    (List.length (only "D1" clean));
  let rng_src = "let pick n = Random.int n\n" in
  let dirty, _ = lint_as "lib/core/x.ml" rng_src in
  Alcotest.(check int) "Random.int flagged elsewhere" 1
    (List.length (only "D1" dirty));
  let clean, _ = lint_as "lib/util/rng.ml" rng_src in
  Alcotest.(check int) "exempt inside lib/util/rng.ml" 0
    (List.length (only "D1" clean))

let test_parse_error_is_e0 () =
  let findings, _ = lint_as "broken.ml" "let x = " in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "rule E0" "E0" f.Finding.rule;
      Alcotest.(check string) "file" "broken.ml" f.Finding.file
  | l -> Alcotest.failf "expected exactly one E0 finding, got %d" (List.length l)

(* The rules a one-line source's allow comment lets through. *)
let allowed_on line =
  let t = Allowlist.scan line in
  List.filter
    (fun rule -> Allowlist.allows t ~line:1 ~rule)
    [ "D1"; "D2"; "D3"; "D4"; "D5" ]

let test_allowlist_parsing () =
  Alcotest.(check (list string))
    "multiple ids, em-dash stops the reason"
    [ "D1"; "D4" ]
    (allowed_on "(* lint: allow D1 D4 \xe2\x80\x94 reason mentioning D5 *)");
  Alcotest.(check (list string))
    "double-hyphen stops the reason too" [ "D2" ]
    (allowed_on "(* lint: allow D2 -- order-insensitive D3 *)");
  Alcotest.(check (list string))
    "no marker, no ids" []
    (allowed_on "let x = 1 (* allow D1 *)")

(* The report is a pure function of the inputs: same fixture dir, same
   bytes out — and the fixture dir is scanned in sorted order. *)
let test_report_stability () =
  let dir = Filename.concat exe_dir "lint" in
  let json1 = Lint.to_json_v2 (Lint.lint_project_files [ dir ]) in
  let r = Lint.lint_project_files [ dir ] in
  Alcotest.(check string) "byte-identical JSON reports" json1
    (Lint.to_json_v2 r);
  Alcotest.(check bool) "json has the stable header" true
    (String.length json1 > 14 && String.sub json1 0 14 = "{\"tool\":\"repro");
  (* The fixture tree linted as one project: the D positives fire
     (d4_pos is path-inert here), and so do the S/N/W positives whose
     halves sit side by side. *)
  let per_rule =
    List.map
      (fun rule ->
        Printf.sprintf "%s:%d" rule (List.length (only rule r.Lint.findings)))
      (rules_of r.Lint.findings)
  in
  Alcotest.(check (list string))
    "per-rule counts over the fixture tree"
    [ "D1:6"; "D2:4"; "D3:4"; "D5:5"; "N2:2"; "S1:3"; "S2:2"; "W1:2"; "W2:2" ]
    per_rule

(* The real gate is `dune build @lint`; replicate it here best-effort so
   plain `dune runtest` also catches a dirty tree. The build dir mirrors
   the lib sources next to the test executable's parent. *)
let test_lib_tree_self_clean () =
  let rec locate dir depth =
    if depth > 6 then None
    else if
      Sys.file_exists
        (Filename.concat dir (Filename.concat "lib" "core/runner.ml"))
    then Some (Filename.concat dir "lib")
    else locate (Filename.dirname dir) (depth + 1)
  in
  match locate exe_dir 0 with
  | None -> ()  (* sandboxed layout without a lib mirror: @lint covers it *)
  | Some lib ->
      let report = Lint.lint_project_files [ lib ] in
      Alcotest.(check (list string))
        "lib tree is lint-clean" []
        (List.map
           (fun (f : Finding.t) ->
             Printf.sprintf "%s:%d [%s]" f.Finding.file f.Finding.line
               f.Finding.rule)
           report.Lint.findings);
      Alcotest.(check bool) "the intentional allows are counted" true
        (report.Lint.suppressed >= 7)

(* {2 lint_cli end to end} *)

let run_cli args =
  let tmp = Filename.temp_file "lint_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" lint_cli args tmp) in
  let out = read tmp in
  Sys.remove tmp;
  (code, out)

let test_cli_exit_codes () =
  let dir = Filename.concat exe_dir "lint" in
  let code, out = run_cli dir in
  Alcotest.(check int) "dirty fixture tree: exit 1" 1 code;
  Alcotest.(check bool) "text report names a rule" true
    (String.length out > 0);
  let code, out = run_cli (Printf.sprintf "--format json %s" dir) in
  Alcotest.(check int) "json format: still exit 1" 1 code;
  Alcotest.(check bool) "json body" true
    (String.length out > 14 && String.sub out 0 14 = "{\"tool\":\"repro");
  let code, _ = run_cli "--list-rules" in
  Alcotest.(check int) "--list-rules: exit 0" 0 code;
  let code, _ = run_cli "/nonexistent/path" in
  Alcotest.(check int) "missing path: exit 2" 2 code

(* Injecting a violation into a lib/core-shaped tree must fail the CLI
   the same way `dune build @lint` would fail on the real tree. *)
let test_cli_injected_violation () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lint_inject_%d" (Unix.getpid ()))
  in
  let core = Filename.concat (Filename.concat root "lib") "core" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p core;
  let target = Filename.concat core "injected.ml" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists target then Sys.remove target;
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        [ core; Filename.concat root "lib"; root ])
    (fun () ->
      Out_channel.with_open_bin target (fun oc ->
          Out_channel.output_string oc (read (fixture "d4_pos.ml")));
      let code, out = run_cli (Printf.sprintf "--format json %s" root) in
      Alcotest.(check int) "injected D4 violation: exit 1" 1 code;
      let has needle =
        let nn = String.length needle and no = String.length out in
        let rec go i =
          i + nn <= no && (String.sub out i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "report names D4" true (has "\"rule\":\"D4\"");
      Alcotest.(check bool) "report names the injected file" true
        (has "injected.ml"))

(* {2 The D2 fix, dynamically}

   Randomize hashtable hashing in-process (every Hashtbl.create from
   here on gets a fresh random seed, so two runs iterate their tables in
   different orders — the same perturbation OCAMLRUNPARAM=R applies at
   startup, which CI and test_cli exercise across processes) and prove
   byz run traces and assignments are still byte-identical. Before the
   plurality tie-break fix this is exactly the path that could flip. *)
let test_byz_trace_identical_under_randomized_hashing () =
  Hashtbl.randomize ();
  let go () =
    let t = Trace.create ~meta:[ ("fixture", `Str "lint_d2") ] () in
    let a =
      E.run_byz ~trace:t ~protocol:E.This_work_byz ~n:16 ~namespace:1024
        ~adversary:(E.Split_world_byz 2) ~pool_probability:0.7 ~seed:5 ()
    in
    (Trace.contents t, a.Repro_renaming.Runner.assignments)
  in
  let trace1, asg1 = go () in
  let trace2, asg2 = go () in
  Alcotest.(check string) "byte-identical traces" trace1 trace2;
  Alcotest.(check (list (pair int int))) "identical assignments" asg1 asg2

(* The delivery fast path's payload size-cache: a process-global cache
   would be D4 under lib/sim, which is why engine.ml keys a per-run
   array by dense sender slot instead. The fixture holds both shapes;
   only the global may fire. *)
let test_d4_size_cache () =
  let source = read (fixture "d4_size_cache.ml") in
  let findings, suppressed = lint_as "lib/sim/d4_size_cache.ml" source in
  Alcotest.(check int) "exactly the global cache fires as D4" 1
    (List.length (only "D4" findings));
  Alcotest.(check int) "nothing suppressed" 0 suppressed;
  let findings, _ = lint_fixture "d4_size_cache.ml" in
  Alcotest.(check int) "clean outside domain-shared dirs" 0
    (List.length (only "D4" findings))

(* The sharded engine's working state: a global domain pool or a global
   broadcast table would be D4 under lib/sim — which is why the pool,
   the per-shard scratch and the billing sums all live inside
   [Engine.run]. The fixture holds the rejected globals (one of them
   allow-annotated), plus the chosen per-run shapes. *)
let test_d4_shard_shapes () =
  let source = read (fixture "d4_shard.ml") in
  let findings, suppressed = lint_as "lib/sim/d4_shard.ml" source in
  Alcotest.(check int) "the two globals fire as D4" 2
    (List.length (only "D4" findings));
  Alcotest.(check int) "annotated global suppressed" 1 suppressed;
  let findings, _ = lint_fixture "d4_shard.ml" in
  Alcotest.(check int) "clean outside domain-shared dirs" 0
    (List.length (only "D4" findings))

(* Verdict-emission arenas (growable buffers the crash committee once
   kept, before it sized its outbox per member): an arena is per-run
   state by contract — a module-level arena under a domain-shared
   library is D4 at the definition, and a parallel closure pushing
   into it is an S1 escape (plus S2: a [Vec.push] can grow the backing
   array, so two shards sharing one vector race on the resize). The
   fixture holds both rejected globals and the chosen per-run
   committee shape; only the globals and the [Pool.run] site fire. *)
let test_d4_arena_ownership () =
  let source = read (fixture "d4_arena.ml") in
  let findings, suppressed = lint_as "lib/util/d4_arena.ml" source in
  Alcotest.(check int) "exactly the two global arenas fire as D4" 2
    (List.length (only "D4" findings));
  Alcotest.(check int) "nothing suppressed" 0 suppressed;
  let clean, _ = lint_fixture "d4_arena.ml" in
  Alcotest.(check int) "clean outside domain-shared dirs" 0
    (List.length (only "D4" clean));
  (* the shard closure writing through the global arena *)
  let flow =
    List.filter (fun (f : Finding.t) -> f.Finding.rule <> "D4") findings
  in
  Alcotest.(check (list string))
    "global-arena push under Pool.run is S1 + S2" [ "S1"; "S2" ]
    (rules_of flow);
  Alcotest.(check bool) "S1 names the global vector" true
    (List.exists
       (fun (f : Finding.t) -> contains f.Finding.message "out_msgs")
       flow)

(* {2 S/N/W rule families over the call graph}

   [project] lints fixtures under a chosen logical path so the
   path-scoped rules (N1) can be exercised from test/lint. *)

let project files =
  Lint.lint_project
    (List.map (fun (logical, name) -> (logical, read (fixture name))) files)

let p_rules (r : Lint.report) = rules_of r.Lint.findings

(* The acceptance demonstration: each half of the S1 pair is clean when
   linted alone, and only the summary graph over both connects the
   Pool.run closure to the global it writes two hops away. *)
let test_s1_cross_file () =
  List.iter
    (fun name ->
      let findings, _ = lint_fixture name in
      Alcotest.(check int) (name ^ ": alone, nothing fires") 0
        (List.length findings))
    [ "s1_glob.ml"; "s1_pos.ml"; "s1_trials.ml" ];
  let r =
    project [ ("s1_glob.ml", "s1_glob.ml"); ("s1_pos.ml", "s1_pos.ml") ]
  in
  Alcotest.(check (list string)) "both files together: S1" [ "S1" ]
    (p_rules r);
  (match r.Lint.findings with
  | [ f ] ->
      Alcotest.(check string) "reported at the parallel call site"
        "s1_pos.ml" f.Finding.file;
      Alcotest.(check bool) "message names the global" true
        (contains f.Finding.message "S1_glob.counter")
  | l -> Alcotest.failf "expected exactly one S1 finding, got %d" (List.length l));
  (* The same escape through a trial fan-out's closure. *)
  let r =
    project
      [ ("s1_glob.ml", "s1_glob.ml"); ("s1_trials.ml", "s1_trials.ml") ]
  in
  (match r.Lint.findings with
  | [ f ] ->
      Alcotest.(check string) "Parallel.map closure flagged as S1" "S1"
        f.Finding.rule;
      Alcotest.(check string) "reported at the fan-out" "s1_trials.ml"
        f.Finding.file
  | l ->
      Alcotest.failf "expected exactly one S1 finding via Parallel.map, got %d"
        (List.length l));
  let r =
    project [ ("s1_glob.ml", "s1_glob.ml"); ("s1_allow.ml", "s1_allow.ml") ]
  in
  Alcotest.(check int) "attribute and comment hatches both work" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "and both count as suppressed" 2 r.Lint.suppressed

let test_s2_shard_mutation () =
  let r = project [ ("s2_pos.ml", "s2_pos.ml") ] in
  Alcotest.(check (list string)) "shard body reaching Hashtbl.replace is S2"
    [ "S2" ] (p_rules r);
  Alcotest.(check int) "one finding" 1 (List.length r.Lint.findings);
  let r = project [ ("s2_allow.ml", "s2_allow.ml") ] in
  Alcotest.(check int) "comment hatch suppresses" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "suppression counted" 1 r.Lint.suppressed

let test_n1_path_scoping () =
  let src = read (fixture "n1_pos.ml") in
  let r = Lint.lint_project [ ("lib/net/n1_pos.ml", src) ] in
  Alcotest.(check (list string)) "raw Unix.read under lib/net is N1" [ "N1" ]
    (p_rules r);
  let r = Lint.lint_project [ ("lib/net/frame.ml", src) ] in
  Alcotest.(check int) "frame.ml owns the EINTR loops: exempt" 0
    (List.length r.Lint.findings);
  let r = project [ ("n1_pos.ml", "n1_pos.ml") ] in
  Alcotest.(check int) "clean outside lib/net" 0 (List.length r.Lint.findings);
  let allow = read (fixture "n1_allow.ml") in
  let r = Lint.lint_project [ ("lib/net/n1_allow.ml", allow) ] in
  Alcotest.(check int) "comment hatch suppresses" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "suppression counted" 1 r.Lint.suppressed

let test_n2_taint () =
  let r = project [ ("n2_pos.ml", "n2_pos.ml") ] in
  Alcotest.(check (list string)) "unchecked wire-sized allocations are N2"
    [ "N2" ] (p_rules r);
  Alcotest.(check int) "let-bound taint and inline read both fire" 2
    (List.length r.Lint.findings);
  let r = project [ ("n2_allow.ml", "n2_allow.ml") ] in
  Alcotest.(check int)
    "bound check clears taint; read_count never taints; hatch suppresses" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "only the hatch counts as suppressed" 1
    r.Lint.suppressed

let test_w1_literal_widths () =
  let r = project [ ("w1_pos.ml", "w1_pos.ml") ] in
  Alcotest.(check (list string)) "literal widths 62 and 64 are W1" [ "W1" ]
    (p_rules r);
  Alcotest.(check int) "both out-of-range literals fire" 2
    (List.length r.Lint.findings);
  let r = project [ ("w1_allow.ml", "w1_allow.ml") ] in
  Alcotest.(check int) "hatches suppress; width 31 is simply clean" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "two suppressions" 2 r.Lint.suppressed

let test_w2_computed_widths () =
  let r = project [ ("w2_pos.ml", "w2_pos.ml") ] in
  Alcotest.(check (list string)) "unguarded computed widths are W2" [ "W2" ]
    (p_rules r);
  Alcotest.(check int) "read and write site both hinted" 2
    (List.length r.Lint.findings);
  let r = project [ ("w2_allow.ml", "w2_allow.ml") ] in
  Alcotest.(check int) "dominating guard is clean; hatch suppresses" 0
    (List.length r.Lint.findings);
  Alcotest.(check int) "only the hatch counts as suppressed" 1
    r.Lint.suppressed

(* A floating [@@@lint.allow "ID"] relaxes the rule from the attribute to
   the end of the file — sites above it still fire. *)
let test_floating_allow () =
  let below =
    "[@@@lint.allow \"D5\"]\n\
     let f x = print_endline x\n\
     let g y = print_endline y\n"
  in
  let findings, suppressed = lint_as "lib/core/x.ml" below in
  Alcotest.(check int) "whole file relaxed: no findings" 0
    (List.length findings);
  Alcotest.(check int) "both sites suppressed" 2 suppressed;
  let split =
    "let f x = print_endline x\n\
     [@@@lint.allow \"D5\"]\n\
     let g y = print_endline y\n"
  in
  let findings, suppressed = lint_as "lib/core/x.ml" split in
  Alcotest.(check (list string)) "site above the attribute still fires"
    [ "D5" ] (rules_of findings);
  Alcotest.(check int) "site below is suppressed" 1 suppressed

(* Byte-stable lint-report/v2 over a fixed logical project, against the
   committed golden. Regenerate with test/gen_v2_golden (see its header)
   if the format changes deliberately. *)
let test_report_v2_golden () =
  let pairs =
    List.map
      (fun (logical, name) -> (logical, read (fixture name)))
      [
        ("lib/net/n1_pos.ml", "n1_pos.ml");
        ("s1_glob.ml", "s1_glob.ml");
        ("s1_pos.ml", "s1_pos.ml");
        ("s2_pos.ml", "s2_pos.ml");
        ("w1_pos.ml", "w1_pos.ml");
      ]
  in
  let json = Lint.to_json_v2 (Lint.lint_project pairs) in
  Alcotest.(check string) "deterministic" json
    (Lint.to_json_v2 (Lint.lint_project pairs));
  Alcotest.(check bool) "v2 schema marker" true
    (contains json "\"schema\":\"lint-report/v2\"");
  Alcotest.(check string) "matches the committed golden"
    (read (fixture "report_v2_golden.json"))
    json

(* {2 lint_cli: SARIF renderer} *)

let test_cli_sarif () =
  let dir = Filename.concat exe_dir "lint" in
  let code, out = run_cli (Printf.sprintf "--format sarif %s" dir) in
  Alcotest.(check int) "sarif on a dirty tree: still exit 1" 1 code;
  Alcotest.(check bool) "sarif envelope" true
    (contains out "\"version\":\"2.1.0\"");
  Alcotest.(check bool) "rules carried in the driver" true
    (contains out "\"id\":\"W1\"");
  Alcotest.(check bool) "errors for hard rules" true
    (contains out "\"level\":\"error\"");
  Alcotest.(check bool) "W2 demoted to note" true
    (contains out "\"level\":\"note\"");
  let _, out2 = run_cli (Printf.sprintf "--format sarif %s" dir) in
  Alcotest.(check string) "byte-stable" out out2

let suite =
  ( "lint",
    [
      Alcotest.test_case "D1 fixtures" `Quick test_d1;
      Alcotest.test_case "D2 fixtures" `Quick test_d2;
      Alcotest.test_case "D3 fixtures" `Quick test_d3;
      Alcotest.test_case "D3 stdlib generics, runtime libraries" `Quick
        test_d3_generics;
      Alcotest.test_case "D4 fixtures + path scoping" `Quick test_d4;
      Alcotest.test_case "D4 size-cache route (engine fast path)" `Quick
        test_d4_size_cache;
      Alcotest.test_case "D4 shard-state routes (pool + broadcast table)"
        `Quick test_d4_shard_shapes;
      Alcotest.test_case "D4/S1 arena ownership" `Quick
        test_d4_arena_ownership;
      Alcotest.test_case "D5 fixtures" `Quick test_d5;
      Alcotest.test_case "D1 path exemptions" `Quick test_d1_path_exemptions;
      Alcotest.test_case "parse error is E0" `Quick test_parse_error_is_e0;
      Alcotest.test_case "allow-comment parsing" `Quick test_allowlist_parsing;
      Alcotest.test_case "report stability" `Quick test_report_stability;
      Alcotest.test_case "lib tree self-clean" `Quick
        test_lib_tree_self_clean;
      Alcotest.test_case "S1 cross-file escape (v1 misses, v2 catches)"
        `Quick test_s1_cross_file;
      Alcotest.test_case "S2 shard-body mutation" `Quick
        test_s2_shard_mutation;
      Alcotest.test_case "N1 raw-syscall path scoping" `Quick
        test_n1_path_scoping;
      Alcotest.test_case "N2 wire-sized allocation taint" `Quick
        test_n2_taint;
      Alcotest.test_case "W1 literal widths" `Quick test_w1_literal_widths;
      Alcotest.test_case "W2 computed widths" `Quick
        test_w2_computed_widths;
      Alcotest.test_case "floating allow scope" `Quick test_floating_allow;
      Alcotest.test_case "lint-report/v2 golden" `Quick
        test_report_v2_golden;
      Alcotest.test_case "lint_cli exit codes" `Quick test_cli_exit_codes;
      Alcotest.test_case "lint_cli SARIF output" `Quick test_cli_sarif;
      Alcotest.test_case "lint_cli injected violation" `Quick
        test_cli_injected_violation;
      Alcotest.test_case "byz trace identical under randomized hashing"
        `Quick test_byz_trace_identical_under_randomized_hashing;
    ] )
