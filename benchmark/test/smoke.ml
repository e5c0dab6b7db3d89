(* Smoke test of the benchmark: every workload at toy size, untraced and
   traced, twice over. It checks that
   - every metric BENCHMARK.json lists is reported on every workload,
     with the same unit and bound, and each result line carries exactly
     the listed metrics;
   - no run fails, which includes the benchmark's own check that the
     seed-determined counts read the same with the clocks armed or not;
   - those counts read the same again on a second invocation;
   - the protocol, adversary and network shares lie in [0, 1] and sum to
     at most 1;
   - --compare accepts a result file against itself and rejects one
     whose message count changed. *)

let bench = "../renaming_bench.exe"
let fail fmt = Printf.ksprintf failwith fmt
let read path = In_channel.with_open_bin path In_channel.input_all

let run args =
  let ic = Unix.open_process_args_in bench (Array.of_list (bench :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing key %S" k

let str = function Json.Str s -> s | _ -> fail "expected a string"
let num = function Json.Num x -> x | _ -> fail "expected a number"
let arr = function Json.Arr l -> l | _ -> fail "expected an array"
let obj = function Json.Obj kvs -> kvs | _ -> fail "expected an object"
let spec = Json.parse (read "../../BENCHMARK.json")

let listed section =
  List.map
    (fun m ->
      ( str (member "name" m),
        str (member "unit" m),
        Option.map num (Json.member "bound" m) ))
    (arr (member section spec))

(* An invocation's result lines: the JSON objects on stdout. *)
let result_lines text =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"{\"correct\"" line then
        Some (Json.parse line)
      else None)
    (String.split_on_char '\n' text)

let check_result_line section line =
  let keys = List.map fst (obj line) in
  let expected = [ "correct"; "attempted"; "failed"; "metrics" ] in
  if not (List.equal String.equal keys expected) then
    fail "result line keys: %s" (String.concat "," keys);
  let metrics = obj (member "metrics" line) in
  let names = List.map (fun (k, _, _) -> k) (listed section) in
  if not (List.equal String.equal (List.map fst metrics) names) then
    fail "result line metrics differ from BENCHMARK.json %s" section;
  List.iter
    (fun (k, unit, _) ->
      let m = member k (Json.Obj metrics) in
      ignore (num (member "value" m));
      if not (String.equal (str (member "unit" m)) unit) then
        fail "result line: %s unit" k)
    (listed section)

let smoke out =
  match run [ "--smoke"; "--trace"; "1"; "--out"; out ] with
  | Unix.WEXITED 0, text ->
      List.iter (check_result_line "per_layer") (result_lines text);
      arr (member "workloads" (Json.parse (read out)))
  | _, text -> fail "smoke run failed:\n%s" text

let check_workload w =
  let name = str (member "workload" w) in
  if num (member "failed" w) <> 0. then fail "%s: failed runs" name;
  List.iter
    (fun section ->
      let reported = member section w in
      List.iter
        (fun (metric, unit, bound) ->
          match Json.member metric reported with
          | None -> fail "%s: %s not reported" name metric
          | Some s -> (
              if not (String.equal (str (member "unit" s)) unit) then
                fail "%s: %s unit differs from BENCHMARK.json" name metric;
              match bound with
              | Some b when not (Float.equal (num (member "bound" s)) b) ->
                  fail "%s: %s bound differs from BENCHMARK.json" name metric
              | _ -> ()))
        (listed section))
    [ "end_to_end"; "per_layer" ];
  let layer = obj (member "per_layer" w) in
  let share k =
    match List.assoc_opt k layer with
    | Some s -> num (member "value" s)
    | None -> 0.
  in
  let shares =
    List.map share [ "protocol.share"; "adversary.share"; "network.share" ]
  in
  if List.exists (fun x -> x < 0. || x > 1.) shares then
    fail "%s: a layer share lies outside [0, 1]" name;
  if List.fold_left ( +. ) 0. shares > 1. +. 1e-9 then
    fail "%s: layer shares sum above 1" name

let exact_values w =
  List.concat_map
    (fun section ->
      List.filter_map
        (fun (k, s) ->
          match Json.member "exact" s with
          | Some (Json.Bool true) ->
              Some (section ^ "/" ^ k, num (member "value" s))
          | _ -> None)
        (obj (member section w)))
    [ "end_to_end"; "per_layer" ]

let same_values a b =
  List.equal
    (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Float.equal v1 v2)
    (exact_values a) (exact_values b)

(* [j] with every msgs_per_node value raised by one. *)
let rec bump_msgs = function
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "msgs_per_node", Json.Obj m ->
                 ( k,
                   Json.Obj
                     (List.map
                        (fun (f, x) ->
                          match (f, x) with
                          | "value", Json.Num n -> (f, Json.Num (n +. 1.))
                          | _ -> (f, x))
                        m) )
             | _ -> (k, bump_msgs v))
           kvs)
  | Json.Arr l -> Json.Arr (List.map bump_msgs l)
  | j -> j

let () =
  let first = smoke "first.json" in
  let second = smoke "second.json" in
  if List.length first <> 4 then fail "expected four workloads";
  List.iter check_workload first;
  List.iter2
    (fun a b ->
      if not (same_values a b) then
        fail "%s: counts differ between invocations" (str (member "workload" a)))
    first second;
  (match run [ "--workload"; "sim-byz-128"; "--smoke"; "--trace"; "0" ] with
  | Unix.WEXITED 0, text -> (
      match List.rev (String.split_on_char '\n' (String.trim text)) with
      | last :: _ -> check_result_line "end_to_end" (Json.parse last)
      | [] -> fail "no output")
  | _, text -> fail "untraced run failed:\n%s" text);
  (match run [ "--compare"; "first.json"; "first.json" ] with
  | Unix.WEXITED 0, _ -> ()
  | _, text -> fail "--compare rejected identical files:\n%s" text);
  Out_channel.with_open_bin "bumped.json" (fun oc ->
      Out_channel.output_string oc
        (Json.to_string (bump_msgs (Json.parse (read "first.json")))));
  match run [ "--compare"; "first.json"; "bumped.json" ] with
  | Unix.WEXITED 1, _ -> ()
  | _, text -> fail "--compare missed a changed count:\n%s" text
