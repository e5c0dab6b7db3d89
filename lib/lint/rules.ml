(* The repro_lint rule set, implemented as a single Ast_iterator walk
   over a compiler-libs parsetree.

   Rules (stable ids; registry with rationale in {!Finding.rules}):

   - D1  banned nondeterminism sources: any [Random.*] (outside
         lib/util/rng.ml), [Sys.time]/[Unix.gettimeofday]/[Unix.time]
         (outside the opt-in timing path in lib/obs/trace.ml),
         [Hashtbl.create ~random:true], [Hashtbl.randomize].
   - D2  [Hashtbl.iter]/[fold]/[to_seq*] whose iteration order escapes:
         flagged unless the application is immediately fed to a sort
         ([e |> List.sort cmp], [List.sort cmp e], [sort @@ e], incl.
         [sort_uniq]/[stable_sort]/[Array.sort]) or carries an allow.
   - D3  polymorphic [compare]/[Stdlib.compare]/[Hashtbl.hash] used as a
         comparator or hash. An unqualified [compare] is exempt when the
         file defines its own top-level [compare] (the Interval /
         Fingerprint idiom). In the runtime libraries (lib/core,
         lib/consensus, lib/crypto, lib/sim, lib/util, lib/net, lib/obs:
         the set CI's nm guard covers) also the stdlib generics that
         compare or hash polymorphically inside the stdlib, where the
         guard cannot see them: [List.mem]/[assoc]/[assoc_opt]/
         [mem_assoc]/[remove_assoc], [Array.mem] and the polymorphic
         [Hashtbl]'s keyed operations.
   - D4  top-level mutable state ([ref]/[Hashtbl.create]/[Array.make]/
         [Atomic.make]/...) in the domain-shared libraries lib/core,
         lib/sim, lib/consensus, lib/crypto, lib/net, lib/util — racy
         under Parallel.map.
   - D5  [Obj.*]/[Marshal.*]/stdout printing in library code, and opaque
         dead-branch [assert false] (must name the broken invariant).

   Escape hatches, each scoped to exactly what it annotates:
   [[@lint.allow "ID"]] / [[@@lint.allow "ID"]] attributes (suppress the
   whole annotated subtree), floating [[@@@lint.allow "ID"]] items
   (suppress from that point to the end of the file — for CLI/bench
   mains whose whole purpose is printing), and
   [(* lint: allow ID — reason *)] comments (suppress the same and the
   following line; see {!Allowlist}). *)

open Parsetree

(* {2 Path scoping} *)

let norm_slashes s = String.map (fun c -> if c = '\\' then '/' else c) s

let path_ends_with path suffix =
  let p = norm_slashes path and s = norm_slashes suffix in
  let np = String.length p and ns = String.length s in
  np >= ns
  && String.sub p (np - ns) ns = s
  && (np = ns || p.[np - ns - 1] = '/')

let path_has_dir path dir =
  let p = "/" ^ norm_slashes path in
  let needle = "/" ^ dir ^ "/" in
  let np = String.length p and nn = String.length needle in
  let rec go i =
    i + nn <= np && (String.sub p i nn = needle || go (i + 1))
  in
  go 0

(* Directories whose module-level mutable state D4 rejects. *)
let domain_shared_dirs =
  [ "lib/core"; "lib/sim"; "lib/consensus"; "lib/crypto"; "lib/net"; "lib/util" ]

(* Directories whose native code CI's polymorphic-compare guard checks;
   D3 also flags the stdlib generics below there. *)
let runtime_dirs = "lib/obs" :: domain_shared_dirs

(* {2 Identifier tables} *)

let strip_stdlib path =
  match path with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | "Pervasives" :: (_ :: _ as rest) -> rest
  | _ -> path

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let mem_str s l = List.exists (String.equal s) l

let timing_fns = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

(* Stdlib functions that compare or hash their keys polymorphically. *)
let polymorphic_generics =
  [
    "List.mem";
    "List.assoc";
    "List.assoc_opt";
    "List.mem_assoc";
    "List.remove_assoc";
    "Array.mem";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.find";
    "Hashtbl.find_opt";
    "Hashtbl.find_all";
    "Hashtbl.mem";
    "Hashtbl.remove";
  ]

let d2_order_ops =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sort_heads =
  [
    "List.sort";
    "List.sort_uniq";
    "List.stable_sort";
    "List.fast_sort";
    "Array.sort";
    "Array.stable_sort";
  ]

let stdout_printers =
  [
    "print_string";
    "print_endline";
    "print_int";
    "print_char";
    "print_float";
    "print_newline";
    "print_bytes";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_int";
    "Format.print_newline";
    "Format.print_space";
    "Format.print_flush";
  ]

(* {2 Attribute escape hatch} *)

let split_ids s =
  let buf = Buffer.create 8 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with ' ' | ',' | ';' | '\t' -> flush () | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

let allow_ids_of_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      split_ids s
  | _ -> []

let attr_allows attrs =
  List.concat_map
    (fun (a : attribute) ->
      if String.equal a.attr_name.txt "lint.allow" then
        allow_ids_of_payload a.attr_payload
      else [])
    attrs

(* {2 The walk} *)

let lident_path txt = Longident.flatten txt
let path_str p = String.concat "." p

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let run ~filename ~comment_allows str =
  let is_rng_file = path_ends_with filename "lib/util/rng.ml" in
  let is_trace_file = path_ends_with filename "lib/obs/trace.ml" in
  let in_domain_shared =
    List.exists (path_has_dir filename) domain_shared_dirs
  in
  let in_runtime = List.exists (path_has_dir filename) runtime_dirs in
  let findings = ref [] in
  let suppressed = ref 0 in
  (* Attribute-allow frames currently in scope (innermost first). *)
  let allow_stack : string list list ref = ref [] in
  (* File-rest-scope allows from floating [[@@@lint.allow "ID"]] items:
     monotone — everything after the item is covered. CLI and bench
     mains use this to bless their stdout reporting wholesale instead
     of annotating every print. *)
  let file_allows : string list ref = ref [] in
  (* Applications of D2 order ops already blessed by a surrounding sort;
     and fn-ident locations already checked at their application site. *)
  let sanctioned : (int * int) list ref = ref [] in
  let handled : (int * int) list ref = ref [] in
  let mem_pos p l = List.exists (fun (a, b) -> a = fst p && b = snd p) l in
  let emit rule loc message hint =
    let line, col = loc_pos loc in
    let allowed_by_attr =
      mem_str rule !file_allows
      || List.exists (fun ids -> mem_str rule ids) !allow_stack
    in
    if allowed_by_attr || Allowlist.allows comment_allows ~line ~rule then
      incr suppressed
    else
      findings :=
        { Finding.rule; file = filename; line; col; message; hint }
        :: !findings
  in
  let with_allows ids f =
    match ids with
    | [] -> f ()
    | _ :: _ ->
        allow_stack := ids :: !allow_stack;
        Fun.protect
          ~finally:(fun () ->
            match !allow_stack with
            | _ :: rest -> allow_stack := rest
            | [] -> invalid_arg "Rules.run: allow stack underflow")
          f
  in
  (* Does this file define its own top-level [compare]? Then a bare
     [compare] refers to that typed function, not Stdlib's. *)
  let defines_local_compare =
    List.exists
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.exists
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = "compare"; _ } -> true
                | _ -> false)
              vbs
        | _ -> false)
      str
  in
  let is_d2_apply (e : expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        mem_str (path_str (strip_stdlib (lident_path txt))) d2_order_ops
    | _ -> false
  in
  let is_sort_expr (e : expression) =
    let head = function
      | Pexp_ident { txt; _ } ->
          mem_str (path_str (strip_stdlib (lident_path txt))) sort_heads
      | _ -> false
    in
    match e.pexp_desc with
    | Pexp_apply (fn, _) -> head fn.pexp_desc
    | d -> head d
  in
  let sanction (e : expression) =
    sanctioned := loc_pos e.pexp_loc :: !sanctioned
  in
  (* [d2_site] is [Some app_loc] when the ident heads an application
     (D2 verdict depends on whether that application was sanctioned),
     [None] when the ident escapes as a bare function value. *)
  let check_ident ~d2_site raw loc =
    let norm = path_str (strip_stdlib raw) in
    let qualified = String.contains (path_str raw) '.' in
    (* D1 — nondeterminism sources *)
    if has_prefix "Random." norm && not is_rng_file then
      emit "D1" loc
        (Printf.sprintf "nondeterministic PRNG `%s`" norm)
        "use Repro_util.Rng (seeded SplitMix) so replays stay bit-identical"
    else if mem_str norm timing_fns && not is_trace_file then
      emit "D1" loc
        (Printf.sprintf "wall-clock read `%s`" norm)
        "timing lives behind the opt-in `timings` flag in lib/obs/trace.ml"
    else if String.equal norm "Hashtbl.randomize" then
      emit "D1" loc "`Hashtbl.randomize` makes iteration order per-process"
        "deterministic hashing is the default; delete the call";
    (* D2 — escaping hashtable iteration order *)
    if mem_str norm d2_order_ops then begin
      match d2_site with
      | Some app_loc ->
          if not (mem_pos (loc_pos app_loc) !sanctioned) then
            emit "D2" loc
              (Printf.sprintf "`%s` iteration order escapes" norm)
              "pipe the result straight into List.sort/sort_uniq, or \
               annotate: (* lint: allow D2 — reason *)"
      | None ->
          emit "D2" loc
            (Printf.sprintf "`%s` passed as a function value; iteration \
                             order escapes unexamined"
               norm)
            "apply it locally and sort the result, or annotate: (* lint: \
             allow D2 — reason *)"
    end;
    (* D3 — polymorphic compare/hash *)
    if
      (String.equal norm "compare" && (qualified || not defines_local_compare))
      || String.equal norm "Hashtbl.hash"
    then
      emit "D3" loc
        (Printf.sprintf "polymorphic `%s` used as %s" (path_str raw)
           (if String.equal norm "Hashtbl.hash" then "a hash" else
              "a comparator"))
        "use a typed comparator (Int.compare, String.compare, or a \
         per-field one)"
    else if in_runtime && mem_str norm polymorphic_generics then
      emit "D3" loc
        (Printf.sprintf "`%s` compares keys polymorphically inside the stdlib"
           norm)
        "use a typed structure (Hashtbl.Make (Int), Sorted.index) or a \
         loop with a typed equality";
    (* D5 — representation escapes & stdout chatter *)
    if has_prefix "Obj." norm then
      emit "D5" loc
        (Printf.sprintf "`%s` breaks the type system's determinism \
                         guarantees"
           norm)
        "restructure so no unsafe cast is needed"
    else if has_prefix "Marshal." norm then
      emit "D5" loc
        (Printf.sprintf "`%s` output depends on runtime representation" norm)
        "write an explicit codec (see lib/sim/wire.ml) instead"
    else if mem_str norm stdout_printers then
      emit "D5" loc
        (Printf.sprintf "`%s` prints to stdout from library code" norm)
        "return strings / take a Format.formatter, or annotate the \
         intentional report printer"
  in
  let check_random_label loc args =
    List.iter
      (fun (label, (arg : expression)) ->
        match label with
        | Asttypes.Labelled "random" -> (
            match arg.pexp_desc with
            | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
                ()
            | _ ->
                emit "D1" loc
                  "`Hashtbl.create ~random:true` randomizes iteration order"
                  "drop ~random (deterministic hashing is the default)")
        | _ -> ())
      args
  in
  let check_apply (e : expression) (fn : expression) args =
    match fn.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let raw = lident_path txt in
        let norm = path_str (strip_stdlib raw) in
        handled := loc_pos fn.pexp_loc :: !handled;
        (* Sanction D2 applications that feed straight into a sort. *)
        (match (norm, args) with
        | "|>", [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ]
          when is_sort_expr rhs && is_d2_apply lhs ->
            sanction lhs
        | "@@", [ (Asttypes.Nolabel, f); (Asttypes.Nolabel, v) ]
          when is_sort_expr f && is_d2_apply v ->
            sanction v
        | _ ->
            if mem_str norm sort_heads then
              List.iter
                (fun (_, (a : expression)) -> if is_d2_apply a then sanction a)
                args);
        if String.equal norm "Hashtbl.create" then
          check_random_label fn.pexp_loc args;
        check_ident ~d2_site:(Some e.pexp_loc) raw fn.pexp_loc
    | _ -> ()
  in
  let check_top_binding (vb : value_binding) =
    let rec strip (e : expression) =
      match e.pexp_desc with Pexp_constraint (e', _) -> strip e' | _ -> e
    in
    match (strip vb.pvb_expr).pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        let path = strip_stdlib (lident_path txt) in
        let norm = path_str path in
        if Summary.any_suffix Summary.mutable_ctor_heads path then
          emit "D4" vb.pvb_loc
            (Printf.sprintf
               "top-level `%s` in a domain-shared library races under \
                Parallel.map"
               norm)
            "make the state per-run (pass it explicitly), or annotate \
             with the synchronization story"
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun it e ->
          with_allows (attr_allows e.pexp_attributes) (fun () ->
              (match e.pexp_desc with
              | Pexp_apply (fn, args) -> check_apply e fn args
              | Pexp_ident { txt; _ } ->
                  if not (mem_pos (loc_pos e.pexp_loc) !handled) then
                    check_ident ~d2_site:None (lident_path txt) e.pexp_loc
              | Pexp_assert
                  {
                    pexp_desc =
                      Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
                    _;
                  } ->
                  emit "D5" e.pexp_loc
                    "opaque dead-branch `assert false` in library code"
                    "raise invalid_arg/failwith naming the invariant this \
                     branch would break"
              | _ -> ());
              default.expr it e))
      ;
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a when String.equal a.attr_name.txt "lint.allow" ->
              file_allows :=
                !file_allows @ allow_ids_of_payload a.attr_payload
          | _ -> ());
          let item_allow_ids =
            match si.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.concat_map (fun vb -> attr_allows vb.pvb_attributes) vbs
            | Pstr_eval (_, attrs) -> attr_allows attrs
            | Pstr_module mb -> attr_allows mb.pmb_attributes
            | _ -> []
          in
          with_allows item_allow_ids (fun () ->
              (if in_domain_shared then
                 match si.pstr_desc with
                 | Pstr_value (_, vbs) -> List.iter check_top_binding vbs
                 | _ -> ());
              default.structure_item it si));
    }
  in
  iterator.structure iterator str;
  (List.sort Finding.compare !findings, !suppressed)
