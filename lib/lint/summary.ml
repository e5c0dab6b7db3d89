(* Pass 1 of the project-wide lint: one summary per compilation unit.

   The per-file D rules ({!Rules}) see one parsetree at a time; the S/N/W
   rule families need facts that cross file boundaries — "this closure,
   handed to a parallel region, transitively writes a top-level mutable
   binding defined two modules away". This module extracts everything
   pass 2 ({!Callgraph}) needs from a single parsetree:

   - top-level mutable bindings (the same constructor set D4 uses, but
     for *every* file, not just the domain-shared directories);
   - top-level module aliases ([module W = Repro_sim.Wire]) so dotted
     references through aliases can be resolved;
   - one function summary per named top-level binding (nested through
     submodules, names flattened to ["Writer.add_fixed"]): every dotted
     identifier referenced (the conservative "calls" set), every
     syntactic write whose target is an identifier (candidate global
     writes), raw [Unix] byte-io syscalls, and mutations of growable
     structures (Hashtbl/Buffer/Wire.Writer) whose receiver was not
     created locally;
   - parallel-region call sites ([Parallel.map]/[map_list], [Pool.run]/
     [Domain_pool.run], [Domain.spawn]) with a closure summary per
     function-valued argument — a literal lambda is summarized in place,
     a bare identifier is kept as a reference for pass 2 to resolve;
   - N2 candidate allocation sites: [Bytes.create]/[Array.make]/
     [String.init]/... sized by a value read straight off the wire
     ([Wire.Reader.read_gamma]/[read_fixed]) with no dominating bound
     check against [max_frame]/[bits_remaining] between the read and
     the allocation;
   - W candidate codec sites: [add_fixed]/[read_fixed] calls with their
     [~width] argument classified literal / guarded / unguarded.

   Soundness stance (DESIGN.md S25): calls are an over-approximation
   (every referenced identifier is an edge, applied or not); closure
   resolution is an under-approximation (only literal lambdas, top-level
   function names and partial applications of top-level functions are
   followed — closures bound to function-local names are invisible).
   Every recorded site carries the attribute allows in scope at record
   time, so pass-2 emission honours the same escape hatches as pass 1. *)

open Parsetree

type pos = { line : int; col : int }

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  { line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

type global = { g_name : string; g_ctor : string; g_pos : pos }

type write = { w_target : string list; w_pos : pos }

type mutation = {
  mu_op : string;  (** e.g. ["Hashtbl.replace"] *)
  mu_recv : string option;  (** receiver when it is a bare identifier *)
  mu_pos : pos;
}

type io_site = { io_op : string; io_pos : pos; io_allows : string list }

type fn = {
  fn_name : string;  (** flattened, e.g. ["Writer.add_fixed"] *)
  fn_pos : pos;
  fn_calls : string list list;  (** every dotted path referenced, sorted *)
  fn_writes : write list;
  fn_mutations : mutation list;  (** receiver not locally created *)
  fn_io : io_site list;
}

type closure = Cl_fun of fn | Cl_ref of string list

type parallel_site = {
  p_kind : string;  (** the head that matched, e.g. ["Pool.run"] *)
  p_shard : bool;  (** shard-body entry (Pool/Domain), not trial fan-out *)
  p_pos : pos;
  p_allows : string list;
  p_closures : closure list;
}

type alloc_site = {
  a_ctor : string;
  a_source : string;  (** the tainted variable or reader call *)
  a_pos : pos;
  a_allows : string list;
}

type width = W_lit of int | W_guarded of string | W_unguarded of string

type wire_site = {
  ww_op : string;
  ww_width : width;
  ww_pos : pos;
  ww_allows : string list;
}

type t = {
  sm_file : string;
  sm_module : string;
  sm_aliases : (string * string list) list;
  sm_globals : global list;
  sm_fns : fn list;
  sm_parallel : parallel_site list;
  sm_allocs : alloc_site list;
  sm_wire : wire_site list;
}

let module_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

(* {2 Identifier tables} *)

let lident_path txt = Longident.flatten txt

let path_suffix_matches ~suffix path =
  let np = List.length path and ns = List.length suffix in
  np >= ns
  && List.for_all2 String.equal suffix
       (List.filteri (fun i _ -> i >= np - ns) path)

let any_suffix suffixes path =
  List.exists (fun s -> path_suffix_matches ~suffix:s path) suffixes

(* Parallel-region entry points. [p_shard] distinguishes shard bodies
   (one closure per domain, shared round state in scope) from trial
   fan-out (whole independent runs). [Parallel.map] runs on
   [Domain_pool.run], but its job there is a parameter, so the call
   graph cannot follow a caller's closure through it: its call sites
   must stay heads of their own. *)
let parallel_heads =
  [
    ([ "Parallel"; "map" ], false);
    ([ "Parallel"; "map_list" ], false);
    ([ "Pool"; "run" ], true);
    ([ "Domain_pool"; "run" ], true);
    ([ "Domain"; "spawn" ], true);
  ]

(* Mutating operations: (path suffix, positional index of the mutated
   receiver, counts for S2's growable-structure rule). Fixed-size
   per-slot writes (Array.set, Bytes.set, the Atomic family) feed the
   S1 global-write analysis but are not S2 material — disjoint-slot
   arrays are the sanctioned shard pattern. *)
let mutating_ops =
  [
    ([ ":=" ], 0, false);
    ([ "incr" ], 0, false);
    ([ "decr" ], 0, false);
    ([ "Hashtbl"; "add" ], 0, true);
    ([ "Hashtbl"; "replace" ], 0, true);
    ([ "Hashtbl"; "remove" ], 0, true);
    ([ "Hashtbl"; "reset" ], 0, true);
    ([ "Hashtbl"; "clear" ], 0, true);
    ([ "Hashtbl"; "filter_map_inplace" ], 1, true);
    ([ "Buffer"; "add_char" ], 0, true);
    ([ "Buffer"; "add_string" ], 0, true);
    ([ "Buffer"; "add_bytes" ], 0, true);
    ([ "Buffer"; "add_substring" ], 0, true);
    ([ "Buffer"; "add_subbytes" ], 0, true);
    ([ "Buffer"; "add_buffer" ], 0, true);
    ([ "Buffer"; "clear" ], 0, true);
    ([ "Buffer"; "reset" ], 0, true);
    ([ "Buffer"; "truncate" ], 0, true);
    ([ "Writer"; "add_bit" ], 0, true);
    ([ "Writer"; "add_fixed" ], 0, true);
    ([ "Writer"; "add_gamma" ], 0, true);
    ([ "Writer"; "add_zeros" ], 0, true);
    ([ "Vec"; "push" ], 0, true);
    ([ "Vec"; "reserve" ], 0, true);
    ([ "Vec"; "set" ], 0, false);
    ([ "Vec"; "clear" ], 0, true);
    ([ "Queue"; "add" ], 1, true);
    ([ "Queue"; "push" ], 1, true);
    ([ "Queue"; "pop" ], 0, true);
    ([ "Queue"; "take" ], 0, true);
    ([ "Queue"; "clear" ], 0, true);
    ([ "Stack"; "push" ], 1, true);
    ([ "Stack"; "pop" ], 0, true);
    ([ "Stack"; "clear" ], 0, true);
    ([ "Array"; "set" ], 0, false);
    ([ "Array"; "fill" ], 0, false);
    ([ "Array"; "blit" ], 2, false);
    ([ "Bytes"; "set" ], 0, false);
    ([ "Bytes"; "fill" ], 0, false);
    ([ "Bytes"; "blit" ], 2, false);
    ([ "Bytes"; "blit_string" ], 2, false);
    ([ "Atomic"; "set" ], 0, false);
    ([ "Atomic"; "incr" ], 0, false);
    ([ "Atomic"; "decr" ], 0, false);
    ([ "Atomic"; "fetch_and_add" ], 0, false);
    ([ "Atomic"; "exchange" ], 0, false);
    ([ "Atomic"; "compare_and_set" ], 0, false);
  ]

(* Constructors whose application at module level is a mutable global
   (D4 in [Rules], and the summary's globals) and whose [let]-binding
   inside a function marks the bound name as locally created for the S2
   receiver-locality check. A top-level round-scoped arena
   ([Arena.Vec.create], the growable emission buffers the crash
   committee once kept) is one too: cross-run — and
   under sharding cross-domain — reusable mutable state; arenas must be
   owned by per-run protocol state (see test/lint/d4_arena.ml). *)
let mutable_ctor_heads =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Bytes"; "init" ];
    [ "Array"; "make" ];
    [ "Array"; "create_float" ];
    [ "Array"; "init" ];
    [ "Atomic"; "make" ];
    [ "Weak"; "create" ];
    [ "Writer"; "create" ];
    [ "Vec"; "create" ];
  ]

(* Raw byte-io syscalls N1 polices: reading or writing without the
   partial-io/EINTR discipline [Frame] wraps around them. *)
let raw_io_heads =
  [
    [ "Unix"; "read" ];
    [ "Unix"; "write" ];
    [ "Unix"; "single_write" ];
    [ "Unix"; "recv" ];
    [ "Unix"; "send" ];
    [ "Unix"; "recvfrom" ];
    [ "Unix"; "sendto" ];
  ]

(* Wire-reader calls whose integer result is attacker-controlled on the
   socket backend. [read_count] is deliberately absent: it is the
   sanctioned bounded reader (checks against [bits_remaining]). *)
let tainted_reader_heads =
  [ [ "Reader"; "read_gamma" ]; [ "Reader"; "read_fixed" ] ]

(* Allocators whose size argument (first positional) N2 checks. *)
let alloc_heads =
  [
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "String"; "init" ];
  ]

(* Identifiers that sanction a bound check: a conditional mentioning the
   tainted variable together with one of these clears the taint. *)
let bound_check_idents = [ "max_frame"; "bits_remaining" ]

let wire_width_ops = [ [ "Writer"; "add_fixed" ]; [ "Reader"; "read_fixed" ] ]

(* {2 The walk} *)

type sink = {
  mutable k_calls : string list list;
  mutable k_writes : write list;
  mutable k_mutations : mutation list;
  mutable k_io : io_site list;
  (* Only the primary (per-top-level-binding) sink records module-level
     sites; closure sub-walks set this false so nothing is recorded
     twice. *)
  primary : bool;
}

let new_sink ~primary =
  { k_calls = []; k_writes = []; k_mutations = []; k_io = []; primary }

let summarize ~filename str =
  let sm_module = module_name_of_file filename in
  let globals = ref [] in
  let aliases = ref [] in
  let fns = ref [] in
  let parallel = ref [] in
  let allocs = ref [] in
  let wire = ref [] in
  (* Allow bookkeeping, mirroring {!Rules}: a stack of attribute frames
     plus the monotone file-scope set from floating
     [[@@@lint.allow "ID"]] items. *)
  let allow_stack : string list list ref = ref [] in
  let file_allows : string list ref = ref [] in
  let allows_now () = List.concat (!file_allows :: !allow_stack) in
  (* Per-top-level-binding state. *)
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let tainted : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let guarded : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let sink_stack : sink list ref = ref [] in
  let cur () =
    match !sink_stack with
    | s :: _ -> s
    | [] -> invalid_arg "Summary: sink stack empty"
  in
  let strip_constraints e =
    let rec go (e : expression) =
      match e.pexp_desc with
      | Pexp_constraint (e', _) -> go e'
      | _ -> e
    in
    go e
  in
  let head_path (e : expression) =
    match (strip_constraints e).pexp_desc with
    | Pexp_ident { txt; _ } -> Some (lident_path txt)
    | _ -> None
  in
  let app_head (e : expression) =
    match (strip_constraints e).pexp_desc with
    | Pexp_apply (f, args) -> (
        match head_path f with Some p -> Some (p, args) | None -> None)
    | _ -> None
  in
  let positional args =
    List.filter_map
      (fun (lbl, a) ->
        match lbl with Asttypes.Nolabel -> Some a | _ -> None)
      args
  in
  (* Identifiers of an expression, for guard harvesting and width
     classification. Dotted paths contribute their last component so a
     guard like [8 * len > W.Reader.bits_remaining r] registers both
     [len] and [bits_remaining]. *)
  let rec harvest_idents acc (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match List.rev (lident_path txt) with
        | x :: _ -> x :: acc
        | [] -> acc)
    | Pexp_apply (f, args) ->
        List.fold_left
          (fun acc (_, a) -> harvest_idents acc a)
          (harvest_idents acc f) args
    | Pexp_constraint (e', _) -> harvest_idents acc e'
    | Pexp_field (e', _) -> harvest_idents acc e'
    | Pexp_tuple es -> List.fold_left harvest_idents acc es
    | Pexp_construct (_, Some e') -> harvest_idents acc e'
    | _ -> acc
  in
  let record_call p = (cur ()).k_calls <- p :: (cur ()).k_calls in
  let record_write p loc =
    (cur ()).k_writes <-
      { w_target = p; w_pos = pos_of loc } :: (cur ()).k_writes
  in
  let is_locally_created = function
    | Some r -> Hashtbl.mem locals r
    | None -> false
  in
  let check_mutation path args loc =
    match
      List.find_opt (fun (sfx, _, _) -> path_suffix_matches ~suffix:sfx path)
        mutating_ops
    with
    | None -> ()
    | Some (sfx, recv_idx, growable) ->
        let recv =
          match List.nth_opt (positional args) recv_idx with
          | Some a -> head_path a
          | None -> None
        in
        let recv_ident =
          match recv with Some [ x ] -> Some x | _ -> None
        in
        (* S1 candidate: the receiver is a (possibly dotted) identifier
           that might resolve to a top-level mutable binding. *)
        (match recv with
        | Some p -> record_write p loc
        | None -> ());
        (* S2 candidate: growable-structure mutation whose receiver was
           not created in this function (a parameter, a capture, or an
           unresolvable expression). *)
        if growable && not (is_locally_created recv_ident) then
          (cur ()).k_mutations <-
            {
              mu_op = String.concat "." sfx;
              mu_recv = recv_ident;
              mu_pos = pos_of loc;
            }
            :: (cur ()).k_mutations
  in
  let check_io path loc =
    if any_suffix raw_io_heads path then
      (cur ()).k_io <-
        {
          io_op = String.concat "." path;
          io_pos = pos_of loc;
          io_allows = allows_now ();
        }
        :: (cur ()).k_io
  in
  let is_tainted_reader_app (e : expression) =
    match app_head e with
    | Some (p, _) -> any_suffix tainted_reader_heads p
    | None -> false
  in
  let check_alloc path args loc =
    if (cur ()).primary && any_suffix alloc_heads path then
      match positional args with
      | size :: _ -> (
          let record source =
            allocs :=
              {
                a_ctor = String.concat "." path;
                a_source = source;
                a_pos = pos_of loc;
                a_allows = allows_now ();
              }
              :: !allocs
          in
          if is_tainted_reader_app size then record "wire read"
          else
            match head_path size with
            | Some [ v ] when Hashtbl.mem tainted v ->
                record (Printf.sprintf "`%s` (%s)" v (Hashtbl.find tainted v))
            | _ -> ())
      | [] -> ()
  in
  let check_wire path args loc =
    if (cur ()).primary && any_suffix wire_width_ops path then
      match
        List.find_opt
          (fun (lbl, _) ->
            match lbl with Asttypes.Labelled "width" -> true | _ -> false)
          args
      with
      | None -> ()
      | Some (_, warg) ->
          let warg = strip_constraints warg in
          let width =
            match warg.pexp_desc with
            | Pexp_constant (Pconst_integer (s, None)) -> (
                match int_of_string_opt s with
                | Some v -> W_lit v
                | None -> W_unguarded s)
            | _ ->
                let ids = harvest_idents [] warg in
                let text =
                  match ids with
                  | x :: _ -> x
                  | [] -> "<expr>"
                in
                if List.exists (Hashtbl.mem guarded) ids then W_guarded text
                else W_unguarded text
          in
          wire :=
            {
              ww_op = String.concat "." path;
              ww_width = width;
              ww_pos = pos_of loc;
              ww_allows = allows_now ();
            }
            :: !wire
  in
  (* Guard bookkeeping: a conditional mentioning a tainted variable next
     to a sanctioned bound identifier clears the taint; every identifier
     that appears in any conditional counts as guarded for W2. *)
  let check_guard cond =
    let ids = harvest_idents [] cond in
    List.iter (fun x -> Hashtbl.replace guarded x ()) ids;
    if List.exists (fun x -> List.mem x bound_check_idents) ids then
      List.iter (fun x -> Hashtbl.remove tainted x) ids
  in
  let note_local_binding (vb : value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> (
        match app_head vb.pvb_expr with
        | Some (p, _) when any_suffix mutable_ctor_heads p ->
            Hashtbl.replace locals txt ()
        | Some (p, _) when any_suffix tainted_reader_heads p ->
            Hashtbl.replace tainted txt (String.concat "." p)
        | _ -> ())
    | _ -> ()
  in
  let attr_allows attrs =
    List.concat_map
      (fun (a : attribute) ->
        if String.equal a.attr_name.txt "lint.allow" then
          match a.attr_payload with
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( {
                          pexp_desc = Pexp_constant (Pconst_string (s, _, _));
                          _;
                        },
                        _ );
                  _;
                };
              ] ->
              String.split_on_char ' ' s
              |> List.concat_map (String.split_on_char ',')
              |> List.filter (fun t -> t <> "")
          | _ -> []
        else [])
      attrs
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
            | [] -> invalid_arg "Summary: allow stack underflow")
          f
  in
  let default = Ast_iterator.default_iterator in
  (* Forward reference: the iterator is needed by [summarize_closure]
     before it is defined. *)
  let iterator_ref = ref default in
  let summarize_closure (e : expression) =
    let s = new_sink ~primary:false in
    sink_stack := s :: !sink_stack;
    Fun.protect
      ~finally:(fun () ->
        match !sink_stack with
        | _ :: rest -> sink_stack := rest
        | [] -> invalid_arg "Summary: sink stack underflow")
      (fun () -> !iterator_ref.expr !iterator_ref e);
    {
      fn_name = "<closure>";
      fn_pos = pos_of e.pexp_loc;
      fn_calls = List.sort_uniq (List.compare String.compare) s.k_calls;
      fn_writes = List.rev s.k_writes;
      fn_mutations = List.rev s.k_mutations;
      fn_io = List.rev s.k_io;
    }
  in
  let closure_of_arg (a : expression) =
    let a = strip_constraints a in
    match a.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> Some (Cl_fun (summarize_closure a))
    | Pexp_ident { txt; _ } -> Some (Cl_ref (lident_path txt))
    | Pexp_apply (f, _) -> (
        (* A partial application like [worker t]: follow the head. *)
        match head_path f with Some p -> Some (Cl_ref p) | None -> None)
    | _ -> None
  in
  let check_parallel path args loc =
    if (cur ()).primary then
      match
        List.find_opt
          (fun (sfx, _) -> path_suffix_matches ~suffix:sfx path)
          parallel_heads
      with
      | None -> ()
      | Some (sfx, shard) ->
          let closures =
            List.filter_map (fun (_, a) -> closure_of_arg a) args
          in
          parallel :=
            {
              p_kind = String.concat "." sfx;
              p_shard = shard;
              p_pos = pos_of loc;
              p_allows = allows_now ();
              p_closures = closures;
            }
            :: !parallel
  in
  let expr_hook it (e : expression) =
    with_allows (attr_allows e.pexp_attributes) (fun () ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> record_call (lident_path txt)
        | Pexp_apply (fn, args) -> (
            match head_path fn with
            | Some path ->
                check_mutation path args e.pexp_loc;
                check_io path fn.pexp_loc;
                check_alloc path args e.pexp_loc;
                check_wire path args e.pexp_loc;
                check_parallel path args e.pexp_loc
            | None -> ())
        | Pexp_ifthenelse (cond, _, _) -> check_guard cond
        | Pexp_setfield (recv, _, _) -> (
            match head_path recv with
            | Some p -> record_write p e.pexp_loc
            | None -> ())
        | Pexp_let (_, vbs, _) -> List.iter note_local_binding vbs
        | Pexp_match (scrut, _) ->
            (* [match read_count r with c -> ...] style bindings are out
               of scope; but a match on a comparison guards like an if. *)
            check_guard scrut
        | _ -> ());
        default.expr it e)
  in
  let iterator = { default with expr = expr_hook } in
  iterator_ref := iterator;
  let walk_unnamed prefix (e : expression) loc =
    Hashtbl.reset locals;
    Hashtbl.reset tainted;
    Hashtbl.reset guarded;
    let s = new_sink ~primary:true in
    sink_stack := [ s ];
    iterator.expr iterator e;
    sink_stack := [];
    if s.k_io <> [] then begin
      let p = pos_of loc in
      fns :=
        {
          fn_name = Printf.sprintf "%s<init:%d>" prefix p.line;
          fn_pos = p;
          fn_calls = [];
          fn_writes = [];
          fn_mutations = [];
          fn_io = List.rev s.k_io;
        }
        :: !fns
    end
  in
  (* Top-level structure walk, descending into literal submodules with a
     flattened name prefix. *)
  let rec walk_structure prefix str =
    List.iter (walk_item prefix) str
  and walk_item prefix (si : structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a ->
        if String.equal a.attr_name.txt "lint.allow" then
          file_allows := !file_allows @ attr_allows [ a ]
    | Pstr_module mb ->
        with_allows (attr_allows mb.pmb_attributes) (fun () ->
            let name =
              match mb.pmb_name.txt with Some n -> n | None -> "_"
            in
            let rec payload (me : module_expr) =
              match me.pmod_desc with
              | Pmod_structure s ->
                  walk_structure (prefix ^ name ^ ".") s
              | Pmod_ident { txt; _ } ->
                  if String.equal prefix "" then
                    aliases := (name, lident_path txt) :: !aliases
              | Pmod_constraint (me', _) -> payload me'
              | Pmod_functor (_, me') -> payload me'
              | _ -> ()
            in
            payload mb.pmb_expr)
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            with_allows (attr_allows vb.pvb_attributes) (fun () ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = name; _ } ->
                    let full = prefix ^ name in
                    (* Mutable global? The same shape D4 rejects in the
                       domain-shared directories. *)
                    (match app_head vb.pvb_expr with
                    | Some (p, _) when any_suffix mutable_ctor_heads p ->
                        globals :=
                          {
                            g_name = full;
                            g_ctor = String.concat "." p;
                            g_pos = pos_of vb.pvb_loc;
                          }
                          :: !globals
                    | _ -> ());
                    Hashtbl.reset locals;
                    Hashtbl.reset tainted;
                    Hashtbl.reset guarded;
                    let s = new_sink ~primary:true in
                    sink_stack := [ s ];
                    iterator.expr iterator vb.pvb_expr;
                    sink_stack := [];
                    fns :=
                      {
                        fn_name = full;
                        fn_pos = pos_of vb.pvb_loc;
                        fn_calls =
                          List.sort_uniq
                            (List.compare String.compare)
                            s.k_calls;
                        fn_writes = List.rev s.k_writes;
                        fn_mutations = List.rev s.k_mutations;
                        fn_io = List.rev s.k_io;
                      }
                      :: !fns
                | _ ->
                    (* [let () = ...] and destructuring bindings: walk
                       for module-level sites (parallel regions in CLI
                       mains live here). Raw io performed directly here
                       still needs an owner for N1, so a non-empty io
                       list earns a positional pseudo-function; nothing
                       can call it, so it never feeds propagation. *)
                    walk_unnamed prefix vb.pvb_expr vb.pvb_loc))
          vbs
    | Pstr_eval (e, attrs) ->
        with_allows (attr_allows attrs) (fun () ->
            walk_unnamed prefix e si.pstr_loc)
    | _ -> ()
  in
  walk_structure "" str;
  {
    sm_file = filename;
    sm_module;
    sm_aliases = List.rev !aliases;
    sm_globals = List.rev !globals;
    sm_fns = List.rev !fns;
    sm_parallel = List.rev !parallel;
    sm_allocs = List.rev !allocs;
    sm_wire = List.rev !wire;
  }
