(* N-rules: socket-syscall and wire-length hygiene.

   N1 — raw [Unix.read]/[write]/[single_write] (and the recv/send
   family) anywhere in lib/net except frame.ml. [Frame.io_of_fd] is the
   one sanctioned wrapper: it retries EINTR, and the frame calls over
   it ([write_frame]/[read_frame], [write_framed]/[read_framed]) loop
   until a whole frame has moved. A raw syscall elsewhere in
   the network layer silently drops bytes under load — scoped to
   lib/net because byte-io belongs nowhere else in the tree (a raw
   syscall in lib/core would already be an architecture bug, and the
   fixture suite pins the scoping).

   N2 — an allocation ([Bytes.create]/[Array.make]/[String.init]/...)
   sized by an integer read straight off the wire ([read_gamma]/
   [read_fixed] — [read_count] is exempt because it bounds against
   [bits_remaining] internally) with no dominating bound check against
   [max_frame]/[bits_remaining] between the read and the allocation.
   On the socket backend every such length is attacker-controlled;
   unchecked it is a one-message memory DoS. Applies repo-wide (codecs
   live in lib/core and lib/net both) except lib/sim/wire.ml, whose
   internals the taint sources come from. *)

type emit = Rules_flow.emit

let check ~(emit : emit) (cg : Callgraph.t) =
  List.iter
    (fun (s : Summary.t) ->
      let file = s.sm_file in
      let in_net = Rules.path_has_dir file "lib/net" in
      let is_frame = Rules.path_ends_with file "lib/net/frame.ml" in
      let is_wire = Rules.path_ends_with file "lib/sim/wire.ml" in
      if in_net && not is_frame then
        List.iter
          (fun (f : Summary.fn) ->
            List.iter
              (fun (io : Summary.io_site) ->
                emit ~rule:"N1" ~file ~pos:io.io_pos ~allows:io.io_allows
                  ~message:
                    (Printf.sprintf
                       "raw `%s` outside Frame's partial-io/EINTR loops"
                       io.io_op)
                  ~hint:
                    "route byte-io through Frame.read_framed/write_framed \
                     (or read_frame/write_frame over Frame.io_of_fd), \
                     which absorb EINTR and short transfers")
              f.fn_io)
          s.sm_fns;
      if not is_wire then
        List.iter
          (fun (a : Summary.alloc_site) ->
            emit ~rule:"N2" ~file ~pos:a.a_pos ~allows:a.a_allows
              ~message:
                (Printf.sprintf
                   "`%s` sized by network-derived %s with no bound check"
                   a.a_ctor a.a_source)
              ~hint:
                "a hostile peer controls wire lengths: compare against \
                 Frame.max_frame or Wire.Reader.bits_remaining before \
                 allocating")
          s.sm_allocs)
    cg.cg_summaries
