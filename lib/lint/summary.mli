(** Pass 1 of the project-wide lint: per-module summaries consumed by
    {!Callgraph}. See DESIGN.md S25 for the soundness stance. *)

type pos = { line : int; col : int }

type global = { g_name : string; g_ctor : string; g_pos : pos }
(** A top-level [let] bound to a mutable constructor ([ref],
    [Hashtbl.create], ...). [g_name] is flattened through submodules
    ("Writer.buf"). *)

type write = { w_target : string list; w_pos : pos }
(** A syntactic write whose target is a (possibly dotted) identifier:
    [x := ...], [r.f <- ...], [Hashtbl.replace t ...] record the
    identifier path of the receiver. *)

type mutation = { mu_op : string; mu_recv : string option; mu_pos : pos }
(** A growable-structure mutation whose receiver was not created inside
    the summarized function — S2 material once reachable from a shard
    body. *)

type io_site = { io_op : string; io_pos : pos; io_allows : string list }

type fn = {
  fn_name : string;
  fn_pos : pos;
  fn_calls : string list list;
  fn_writes : write list;
  fn_mutations : mutation list;
  fn_io : io_site list;
}

type closure = Cl_fun of fn | Cl_ref of string list
(** A function-valued argument at a parallel site: a literal lambda
    summarized in place, or an identifier/partial-application head left
    for pass 2 to resolve. *)

type parallel_site = {
  p_kind : string;
  p_shard : bool;
  p_pos : pos;
  p_allows : string list;
  p_closures : closure list;
}

type alloc_site = {
  a_ctor : string;
  a_source : string;
  a_pos : pos;
  a_allows : string list;
}
(** An N2 candidate: an allocation sized by a wire-read integer with no
    dominating bound check seen between read and allocation. *)

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

val summarize : filename:string -> Parsetree.structure -> t

val mutable_ctor_heads : string list list
(** Constructors whose application at module level is a mutable global,
    as identifier paths ([\["Hashtbl"; "create"\]]); an application
    matches when its path ends with one of them. *)

val any_suffix : string list list -> string list -> bool
(** [any_suffix heads path]: does [path] end with one of [heads],
    component by component? *)
