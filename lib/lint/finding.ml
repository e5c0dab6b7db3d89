(* A single lint diagnostic, plus the registry of rules the pass knows
   about. Kept free of any I/O so both the CLI and the test suite can
   consume findings structurally. *)

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  hint : string;
}

(* Deterministic report order: file, then position, then rule id. The
   linter's own output must honour the determinism contract it
   enforces. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

(* (id, what it rejects, why the repo cares). E0 is the pseudo-rule for
   files the parser cannot read at all; it cannot be suppressed. *)
let rules =
  [
    ( "E0",
      "unparseable source file",
      "a file the linter cannot parse cannot be certified deterministic" );
    ( "D1",
      "banned nondeterminism source (Random.*, Sys.time, \
       Unix.gettimeofday, Hashtbl.create ~random:true, Hashtbl.randomize)",
      "replays must be a pure function of the seed: route randomness \
       through Repro_util.Rng and timing through the opt-in path in \
       lib/obs/trace.ml" );
    ( "D2",
      "Hashtbl.iter/fold/to_seq whose result order escapes",
      "hashtable iteration order varies with OCAMLRUNPARAM=R and stdlib \
       version; sort the extracted list before it is observed" );
    ( "D3",
      "polymorphic compare/Stdlib.compare/Hashtbl.hash as comparator or \
       hash; in the runtime libraries also List.mem/assoc/assoc_opt, \
       Array.mem and the polymorphic Hashtbl's keyed operations",
      "structural compare ties break by representation, not meaning; \
       use typed comparators (Int.compare, String.compare, per-field)" );
    ( "D4",
      "top-level mutable state in the domain-shared libraries \
       (lib/core, lib/sim, lib/consensus, lib/crypto, lib/net, \
       lib/util)",
      "module-level refs/tables race under Parallel.map; thread state \
       through per-run values instead" );
    ( "D5",
      "Obj.magic/Marshal/stdout printing/opaque `assert false` in \
       library code",
      "library code must stay representation-safe and silent on stdout; \
       dead branches must name the invariant they guard" );
    ( "S1",
      "closure entering a parallel region (Parallel.map, Pool.run, \
       Domain_pool.run, Domain.spawn) transitively writes a top-level \
       mutable binding — possibly defined in another module",
      "the interprocedural upgrade of D4: per-file analysis cannot see \
       a global defined two modules away; racy writes from inside a \
       parallel region break bit-identical replay" );
    ( "S2",
      "growable-structure mutation (Hashtbl/Buffer/Queue/Wire.Writer) \
       on a non-local receiver, reachable from a shard body",
      "growable structures resize under mutation; two shards touching \
       one table race on the resize even when their key sets are \
       disjoint — shard state must be per-slot arrays or per-shard \
       accumulators merged after the join" );
    ( "N1",
      "raw Unix.read/write/single_write (and recv/send) in lib/net \
       outside Frame's partial-io/EINTR loops",
      "short reads, partial writes and EINTR are silently lost by raw \
       syscalls; all socket byte-io must go through Frame's \
       write_frame/read_frame or write_framed/read_framed, over \
       Frame.io_of_fd" );
    ( "N2",
      "Bytes.create/Array.make/String.init sized by a network-derived \
       integer with no bound check against max_frame/bits_remaining",
      "a hostile peer controls every length read off the wire; an \
       unchecked allocation is a one-message memory DoS" );
    ( "W1",
      "literal ~width argument to Wire add_fixed/read_fixed outside \
       [0, 61]",
      "width 62 shifts into the OCaml int sign bit — the exact class \
       of the read_gamma k=62 negative-wrap bug; widths above 61 are \
       reserved to the codec internals in lib/sim/wire.ml" );
    ( "W2",
      "non-literal ~width reaching a Wire codec call with no dominating \
       guard (hint)",
      "a computed width that was never compared against anything can \
       exceed 61 at runtime; hoist a bound check or derive the width \
       from a trusted constant" );
  ]
