(* Driver: parse (compiler-libs), run the per-file rule walk and the
   project-wide pass, render reports.

   Parsing goes through compiler-libs' [Parse.implementation] on an
   in-memory lexbuf (the same parser [Pparse] wraps) rather than
   [Pparse.parse_implementation], because the comment escape hatch needs
   the raw source text anyway — one read serves both the lexer and the
   {!Allowlist} scan. *)

let parse ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception Syntaxerr.Error e ->
      Error (Syntaxerr.location_of_error e, "syntax error")
  | exception Lexer.Error (_, loc) -> Error (loc, "lexer error")

let parse_error_finding ~filename (loc : Location.t) msg =
  let p = loc.Location.loc_start in
  {
    Finding.rule = "E0";
    file = filename;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message = msg;
    hint = "fix the file so the linter can parse it";
  }

(* Walk the given paths collecting .ml files. [Sys.readdir] order is
   filesystem-dependent, so every directory listing is sorted — report
   order is part of the determinism contract. *)
let collect_ml_files paths =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if String.length name = 0 || name.[0] = '.' || name = "_build"
             then acc
             else walk acc (Filename.concat path name))
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.fold_left walk [] paths |> List.sort String.compare

(* {2 The project pass}

   The per-file rules run over each file; on top, every file that parses
   contributes a {!Summary.t}, the summaries link into a {!Callgraph},
   and the S/N/W rule families emit over the graph. Graph findings
   anchor at concrete source positions, so both escape hatches keep
   working: attribute allows are captured into each summarized site,
   comment allows are matched against the per-file {!Allowlist} at
   emission time. Each file's allowlist is scanned once and serves both
   the per-file walk and the graph rules. *)

type report = {
  graph : Callgraph.t;
  findings : Finding.t list;
  files_scanned : int;
  suppressed : int;
}

(* Total order including message/hint — used only to deduplicate
   (distinct closures at one parallel site can derive the identical
   finding twice). *)
let finding_total_compare (a : Finding.t) (b : Finding.t) =
  match Finding.compare a b with
  | 0 -> (
      match String.compare a.message b.message with
      | 0 -> String.compare a.hint b.hint
      | c -> c)
  | c -> c

let lint_project pairs =
  let per_file = ref [] in
  let suppressed = ref 0 in
  let summaries = ref [] in
  let allowlists = ref [] in
  List.iter
    (fun (filename, source) ->
      match parse ~filename source with
      | Ok str ->
          let comment_allows = Allowlist.scan source in
          let f, s = Rules.run ~filename ~comment_allows str in
          per_file := f :: !per_file;
          suppressed := !suppressed + s;
          summaries := Summary.summarize ~filename str :: !summaries;
          allowlists := (filename, comment_allows) :: !allowlists
      | Error (loc, msg) ->
          per_file := [ parse_error_finding ~filename loc msg ] :: !per_file)
    pairs;
  let graph = Callgraph.build (List.rev !summaries) in
  let graph_findings = ref [] in
  let emit ~rule ~file ~pos ~allows ~message ~hint =
    let { Summary.line; col } = pos in
    let comment_allowed =
      match List.assoc_opt file !allowlists with
      | Some t -> Allowlist.allows t ~line ~rule
      | None -> false
    in
    if List.exists (String.equal rule) allows || comment_allowed then
      incr suppressed
    else
      graph_findings :=
        { Finding.rule; file; line; col; message; hint } :: !graph_findings
  in
  Rules_flow.check ~emit graph;
  Rules_net.check ~emit graph;
  Rules_wire.check ~emit graph;
  let findings =
    List.concat (!graph_findings :: !per_file)
    |> List.sort_uniq finding_total_compare
    |> List.stable_sort Finding.compare
  in
  {
    graph;
    findings;
    files_scanned = List.length pairs;
    suppressed = !suppressed;
  }

let lint_project_files paths =
  lint_project
    (List.map
       (fun file -> (file, In_channel.with_open_bin file In_channel.input_all))
       (collect_ml_files paths))

(* {2 Rendering} *)

let add_escaped = Sarif.add_escaped

let project_to_text r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s] %s\n    hint: %s\n" f.file f.line
           f.col f.rule f.message f.hint))
    r.findings;
  let n = List.length r.findings in
  Buffer.add_string buf
    (Printf.sprintf "repro_lint: %s in %d files (%d suppressed by allow)\n"
       (if n = 0 then "clean"
        else Printf.sprintf "%d finding%s" n (if n = 1 then "" else "s"))
       r.files_scanned r.suppressed);
  Buffer.contents buf

let add_finding_json buf (f : Finding.t) =
  Buffer.add_string buf "{\"rule\":";
  add_escaped buf f.rule;
  Buffer.add_string buf ",\"file\":";
  add_escaped buf f.file;
  Buffer.add_string buf ",\"line\":";
  Buffer.add_string buf (string_of_int f.line);
  Buffer.add_string buf ",\"col\":";
  Buffer.add_string buf (string_of_int f.col);
  Buffer.add_string buf ",\"message\":";
  add_escaped buf f.message;
  Buffer.add_string buf ",\"hint\":";
  add_escaped buf f.hint;
  Buffer.add_char buf '}'

(* lint-report/v2: the findings plus the per-module summary graph
   (globals, per-function propagated facts, parallel sites). Hand-rolled
   fixed field order, like lib/obs/trace.ml: the report is diffed in CI
   and pinned by a golden in test/lint/, so byte-stability matters. *)
let to_json_v2 r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"tool\":\"repro_lint\",\"schema\":\"lint-report/v2\"";
  Buffer.add_string buf ",\"files_scanned\":";
  Buffer.add_string buf (string_of_int r.files_scanned);
  Buffer.add_string buf ",\"suppressed\":";
  Buffer.add_string buf (string_of_int r.suppressed);
  Buffer.add_string buf ",\"modules\":[";
  List.iteri
    (fun i (s : Summary.t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"file\":";
      add_escaped buf s.sm_file;
      Buffer.add_string buf ",\"module\":";
      add_escaped buf s.sm_module;
      Buffer.add_string buf ",\"globals\":[";
      List.iteri
        (fun j (g : Summary.global) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "{\"name\":";
          add_escaped buf g.g_name;
          Buffer.add_string buf ",\"ctor\":";
          add_escaped buf g.g_ctor;
          Buffer.add_string buf ",\"line\":";
          Buffer.add_string buf (string_of_int g.g_pos.line);
          Buffer.add_char buf '}')
        s.sm_globals;
      Buffer.add_string buf "],\"fns\":[";
      List.iteri
        (fun j (f : Summary.fn) ->
          if j > 0 then Buffer.add_char buf ',';
          let key =
            Callgraph.fn_key ~module_name:s.sm_module f.fn_name
          in
          let writes, mutates, io, reaches_io =
            match Callgraph.find_fn r.graph key with
            | Some ff ->
                ( ff.ff_writes_globals,
                  ff.ff_reaches_mutation <> [],
                  ff.ff_does_io,
                  ff.ff_reaches_io )
            | None -> ([], false, false, false)
          in
          Buffer.add_string buf "{\"name\":";
          add_escaped buf f.fn_name;
          Buffer.add_string buf ",\"writes_globals\":[";
          List.iteri
            (fun k g ->
              if k > 0 then Buffer.add_char buf ',';
              add_escaped buf g)
            writes;
          Buffer.add_string buf "],\"mutates\":";
          Buffer.add_string buf (if mutates then "true" else "false");
          Buffer.add_string buf ",\"io\":";
          Buffer.add_string buf (if io then "true" else "false");
          Buffer.add_string buf ",\"reaches_io\":";
          Buffer.add_string buf (if reaches_io then "true" else "false");
          Buffer.add_char buf '}')
        s.sm_fns;
      Buffer.add_string buf "],\"parallel\":[";
      List.iteri
        (fun j (p : Summary.parallel_site) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "{\"kind\":";
          add_escaped buf p.p_kind;
          Buffer.add_string buf ",\"shard\":";
          Buffer.add_string buf (if p.p_shard then "true" else "false");
          Buffer.add_string buf ",\"line\":";
          Buffer.add_string buf (string_of_int p.p_pos.line);
          Buffer.add_string buf ",\"col\":";
          Buffer.add_string buf (string_of_int p.p_pos.col);
          Buffer.add_char buf '}')
        s.sm_parallel;
      Buffer.add_string buf "]}")
    r.graph.Callgraph.cg_summaries;
  Buffer.add_string buf "],\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_finding_json buf f)
    r.findings;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

