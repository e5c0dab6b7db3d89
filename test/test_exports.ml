(* The export guard: every value a lib/ interface exports has a user
   outside the test suite, or says why not.

   Each lib/**/*.mli is parsed with compiler-libs (nested signatures and
   functor results included; module types are contracts for
   implementers, not exports, and are skipped). A value is used when
   its name is an identifier token of some non-test .ml/.mli under lib,
   bin, bench, benchmark or examples other than its own module's two
   files. The lexer skips comments and strings; a name right after a
   binder (val, let, rec, and, type, external) declares rather than
   uses, so it is not counted. A coincidental use elsewhere still
   counts, so the guard can miss an unused value but never flags a used
   one.

   A value with no user fails the guard unless its doc comment carries
   a "Test-only:" reason; a value with that marker and a user fails it
   too, so the markers cannot go stale. *)

let exe_dir = Filename.dirname Sys.executable_name
let roots = [ "lib"; "bin"; "bench"; "benchmark"; "examples" ]
let root name = Filename.concat (Filename.concat exe_dir "..") name

(* Every .ml/.mli under [dir], skipping test directories and dune's
   hidden build directories. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name = "test" || name.[0] = '.' then [] else sources path
         else if Filename.check_suffix name ".ml"
                 || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let lexbuf_of path =
  let lexbuf = Lexing.from_string (read path) in
  Location.init lexbuf path;
  lexbuf

(* The identifiers [path] uses. *)
let identifiers path =
  let lexbuf = lexbuf_of path in
  Lexer.init ();
  let used = Hashtbl.create 256 in
  let rec go prev =
    match Lexer.token lexbuf with
    | Parser.EOF -> ()
    | Parser.LIDENT s ->
        (match prev with
        | Parser.(VAL | LET | REC | AND | TYPE | EXTERNAL) -> ()
        | _ -> Hashtbl.replace used s ());
        go (Parser.LIDENT s)
    | tok -> go tok
  in
  go Parser.EOF;
  used

type export = {
  file : string;
  name : string;
  path : string;  (** dotted: ["Engine.Make.Sends.add"] *)
  test_only : bool;
}

let doc_says_test_only attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      a.attr_name.txt = "ocaml.doc"
      &&
      match a.attr_payload with
      | Parsetree.PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ] ->
          let m = "Test-only:" in
          let n = String.length m in
          let rec at i =
            i + n <= String.length s && (String.sub s i n = m || at (i + 1))
          in
          at 0
      | _ -> false)
    attrs

(* The values [file]'s interface exports, with their dotted paths. *)
let exports file =
  let top =
    String.capitalize_ascii Filename.(remove_extension (basename file))
  in
  let rec of_sig prefix items = List.concat_map (of_item prefix) items
  and of_item prefix (item : Parsetree.signature_item) =
    match item.psig_desc with
    | Psig_value vd ->
        [
          {
            file;
            name = vd.pval_name.txt;
            path = prefix ^ "." ^ vd.pval_name.txt;
            test_only = doc_says_test_only vd.pval_attributes;
          };
        ]
    | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type; _ } ->
        of_mty (prefix ^ "." ^ m) pmd_type
    | _ -> []
  and of_mty prefix (mty : Parsetree.module_type) =
    match mty.pmty_desc with
    | Pmty_signature items -> of_sig prefix items
    | Pmty_functor (_, body) -> of_mty prefix body
    | _ -> []
  in
  of_sig top (Parse.interface (lexbuf_of file))

(* One line per export that breaks the rule; empty when the guard
   passes. *)
let violations () =
  let files = List.concat_map (fun r -> sources (root r)) roots in
  let ids = List.map (fun f -> (f, identifiers f)) files in
  let stem f = Filename.remove_extension f in
  let used_outside e =
    List.exists
      (fun (f, used) ->
        stem f <> stem e.file && Hashtbl.mem used e.name)
      ids
  in
  files
  |> List.filter (fun f ->
         Filename.check_suffix f ".mli"
         && String.starts_with ~prefix:(root "lib") f)
  |> List.concat_map exports
  |> List.filter_map (fun e ->
         match (used_outside e, e.test_only) with
         | false, false ->
             Some (e.path ^ ": no user outside the tests, no Test-only: reason")
         | true, true -> Some (e.path ^ ": marked Test-only: but has a user")
         | _ -> None)

let test_roots_present () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " is present") true (Sys.file_exists (root r)))
    roots

let test_guard () =
  Alcotest.(check (list string)) "export violations" [] (violations ())

let suite =
  ( "exports",
    [
      Alcotest.test_case "the five trees are present" `Quick test_roots_present;
      Alcotest.test_case "every lib export has a user or a reason" `Quick
        test_guard;
    ] )
