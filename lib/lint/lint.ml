(* Driver: parse (compiler-libs), run the rule walk, render reports.

   Parsing goes through compiler-libs' [Parse.implementation] on an
   in-memory lexbuf (the same parser [Pparse] wraps) rather than
   [Pparse.parse_implementation], because the comment escape hatch needs
   the raw source text anyway — one read serves both the lexer and the
   {!Allowlist} scan. *)

type report = {
  findings : Finding.t list;
  files_scanned : int;
  suppressed : int;
}

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

let lint_string ?(enabled = fun _ -> true) ~filename source =
  match parse ~filename source with
  | Ok str -> Rules.run { Rules.filename; enabled } ~source str
  | Error (loc, msg) -> ([ parse_error_finding ~filename loc msg ], 0)

let lint_file ?enabled path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  lint_string ?enabled ~filename:path source

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

let lint_files ?enabled paths =
  let files = collect_ml_files paths in
  let findings, suppressed =
    List.fold_left
      (fun (fs, sup) file ->
        let f, s = lint_file ?enabled file in
        (f :: fs, sup + s))
      ([], 0) files
  in
  {
    findings = List.sort Finding.compare (List.concat findings);
    files_scanned = List.length files;
    suppressed;
  }

(* {2 Project-wide pass (lint v2)}

   The v1 per-file rules run unchanged; on top, every file that parses
   contributes a {!Summary.t}, the summaries link into a {!Callgraph},
   and the S/N/W rule families emit over the graph. Graph findings
   anchor at concrete source positions, so both escape hatches keep
   working: attribute allows are captured into each summarized site,
   comment allows are matched against the per-file {!Allowlist} at
   emission time. *)

type project_report = {
  graph : Callgraph.t;
  p_findings : Finding.t list;
  p_files_scanned : int;
  p_suppressed : int;
  p_baseline_suppressed : int;
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

type baseline = (string * string * string) list

let lint_project ?(enabled = fun _ -> true) ?(baseline = []) pairs =
  let per_file = ref [] in
  let suppressed = ref 0 in
  let summaries = ref [] in
  let allowlists = ref [] in
  List.iter
    (fun (filename, source) ->
      match parse ~filename source with
      | Ok str ->
          let f, s = Rules.run { Rules.filename; enabled } ~source str in
          per_file := f :: !per_file;
          suppressed := !suppressed + s;
          summaries := Summary.summarize ~filename str :: !summaries;
          allowlists := (filename, Allowlist.scan source) :: !allowlists
      | Error (loc, msg) ->
          per_file := [ parse_error_finding ~filename loc msg ] :: !per_file)
    pairs;
  let graph = Callgraph.build (List.rev !summaries) in
  let graph_findings = ref [] in
  let emit ~rule ~file ~pos ~allows ~message ~hint =
    if enabled rule then begin
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
          { Finding.rule; file; line; col; message; hint }
          :: !graph_findings
    end
  in
  Rules_flow.check ~emit graph;
  Rules_net.check ~emit graph;
  Rules_wire.check ~emit graph;
  let all =
    List.concat (!graph_findings :: !per_file)
    |> List.sort_uniq finding_total_compare
    |> List.stable_sort Finding.compare
  in
  let in_baseline (f : Finding.t) =
    List.exists
      (fun (r, fi, m) ->
        String.equal r f.rule && String.equal fi f.file
        && String.equal m f.message)
      baseline
  in
  let kept, based = List.partition (fun f -> not (in_baseline f)) all in
  {
    graph;
    p_findings = kept;
    p_files_scanned = List.length pairs;
    p_suppressed = !suppressed;
    p_baseline_suppressed = List.length based;
  }

let lint_project_files ?enabled ?baseline paths =
  let files = collect_ml_files paths in
  let pairs =
    List.map
      (fun file ->
        (file, In_channel.with_open_bin file In_channel.input_all))
      files
  in
  lint_project ?enabled ?baseline pairs

let findings_by_rule report =
  List.fold_left
    (fun acc (f : Finding.t) ->
      let rec bump = function
        | [] -> [ (f.rule, 1) ]
        | (r, n) :: rest ->
            if String.equal r f.rule then (r, n + 1) :: rest
            else (r, n) :: bump rest
      in
      bump acc)
    [] report.findings
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* {2 Rendering} *)

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

(* Hand-rolled writer with fixed field order, like lib/obs/trace.ml: the
   JSON report is diffed in CI, so byte-stability matters. *)
let to_json report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"tool\":\"repro_lint\",\"schema\":\"lint-report/v1\"";
  Buffer.add_string buf ",\"files_scanned\":";
  Buffer.add_string buf (string_of_int report.files_scanned);
  Buffer.add_string buf ",\"suppressed\":";
  Buffer.add_string buf (string_of_int report.suppressed);
  Buffer.add_string buf ",\"findings\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then Buffer.add_char buf ',';
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
      Buffer.add_char buf '}')
    report.findings;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* {2 v2 rendering} *)

let project_to_text r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s] %s\n    hint: %s\n" f.file f.line
           f.col f.rule f.message f.hint))
    r.p_findings;
  let n = List.length r.p_findings in
  Buffer.add_string buf
    (Printf.sprintf
       "repro_lint: %s in %d files (%d suppressed by allow, %d by \
        baseline)\n"
       (if n = 0 then "clean"
        else Printf.sprintf "%d finding%s" n (if n = 1 then "" else "s"))
       r.p_files_scanned r.p_suppressed r.p_baseline_suppressed);
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

(* lint-report/v2: the v1 finding objects plus the per-module summary
   graph (globals, per-function propagated facts, parallel sites).
   Hand-rolled fixed field order, byte-stable — pinned by a golden in
   test/lint/. The summaries deliberately contain no "rule" key so
   {!baseline_of_json} can scan v1 and v2 reports alike. *)
let to_json_v2 r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"tool\":\"repro_lint\",\"schema\":\"lint-report/v2\"";
  Buffer.add_string buf ",\"files_scanned\":";
  Buffer.add_string buf (string_of_int r.p_files_scanned);
  Buffer.add_string buf ",\"suppressed\":";
  Buffer.add_string buf (string_of_int r.p_suppressed);
  Buffer.add_string buf ",\"baseline_suppressed\":";
  Buffer.add_string buf (string_of_int r.p_baseline_suppressed);
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
    r.p_findings;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* {2 Baseline}

   A baseline is the (rule, file, message) triple set of a committed
   report; findings matching it are suppressed so a new rule family can
   land warn-only and ratchet to zero. The parser is a purpose-built
   scanner over our own fixed-field-order writers (v1 and v2 both):
   every finding object serializes "rule" then "file" then "message" in
   that order, and no other object in either schema has a "rule" key. *)

let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then -1
    else if String.sub hay i nn = needle then i
    else go (i + 1)
  in
  if nn = 0 then -1 else go from

(* Parse a JSON string literal whose opening quote is at [i]; returns
   (contents, index past the closing quote). Understands exactly the
   escapes {!add_escaped} produces. *)
let parse_json_string s i =
  let n = String.length s in
  if i >= n || s.[i] <> '"' then None
  else begin
    let buf = Buffer.create 32 in
    let rec go i =
      if i >= n then None
      else
        match s.[i] with
        | '"' -> Some (Buffer.contents buf, i + 1)
        | '\\' when i + 1 < n -> (
            match s.[i + 1] with
            | '"' -> Buffer.add_char buf '"'; go (i + 2)
            | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
            | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
            | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
            | 't' -> Buffer.add_char buf '\t'; go (i + 2)
            | 'u' when i + 5 < n -> (
                match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                | Some code when code < 0x80 ->
                    Buffer.add_char buf (Char.chr code);
                    go (i + 6)
                | _ -> None)
            | _ -> None)
        | c -> Buffer.add_char buf c; go (i + 1)
    in
    go (i + 1)
  end

let baseline_of_json source : baseline =
  let rec go from acc =
    match find_sub source "\"rule\":" from with
    | -1 -> List.rev acc
    | i -> (
        let value key j =
          match find_sub source ("\"" ^ key ^ "\":") j with
          | -1 -> None
          | k ->
              parse_json_string source (k + String.length key + 3)
        in
        match parse_json_string source (i + 7) with
        | None -> List.rev acc
        | Some (rule, j) -> (
            match value "file" j with
            | None -> List.rev acc
            | Some (file, j) -> (
                match value "message" j with
                | None -> List.rev acc
                | Some (message, j) ->
                    go j ((rule, file, message) :: acc))))
  in
  go 0 []

let baseline_of_file path =
  baseline_of_json
    (In_channel.with_open_bin path In_channel.input_all)
