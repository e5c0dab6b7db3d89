(* Minimal SARIF 2.1.0 renderer for CI/editor annotation. Hand-rolled
   with fixed field order, like the lint-report/v2 JSON writer: the artifact is
   uploaded from CI and diffed, so byte-stability matters. Only the
   subset GitHub code scanning and editors actually read is emitted:
   tool.driver.rules (from {!Finding.rules}) and results with ruleId /
   level / message / one physicalLocation. W2 is the one hint-level
   rule; everything else renders as "error" because the @lint alias
   hard-fails on it. *)

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

let level_of_rule rule = if String.equal rule "W2" then "note" else "error"

let render (findings : Finding.t list) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"repro_lint\",\"informationUri\":\"DESIGN.md\",\"rules\":[";
  List.iteri
    (fun i (id, rejects, rationale) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"id\":";
      add_escaped buf id;
      Buffer.add_string buf ",\"shortDescription\":{\"text\":";
      add_escaped buf rejects;
      Buffer.add_string buf "},\"fullDescription\":{\"text\":";
      add_escaped buf rationale;
      Buffer.add_string buf "},\"defaultConfiguration\":{\"level\":";
      add_escaped buf (level_of_rule id);
      Buffer.add_string buf "}}")
    Finding.rules;
  Buffer.add_string buf "]}},\"results\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"ruleId\":";
      add_escaped buf f.rule;
      Buffer.add_string buf ",\"level\":";
      add_escaped buf (level_of_rule f.rule);
      Buffer.add_string buf ",\"message\":{\"text\":";
      add_escaped buf (f.message ^ " — hint: " ^ f.hint);
      Buffer.add_string buf
        "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":";
      add_escaped buf f.file;
      Buffer.add_string buf "},\"region\":{\"startLine\":";
      Buffer.add_string buf (string_of_int f.line);
      Buffer.add_string buf ",\"startColumn\":";
      (* SARIF columns are 1-based; findings carry 0-based columns. *)
      Buffer.add_string buf (string_of_int (f.col + 1));
      Buffer.add_string buf "}}}]}")
    findings;
  Buffer.add_string buf "]}]}\n";
  Buffer.contents buf
