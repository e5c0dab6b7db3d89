(* Multi-process driver for the socket network backend: the same node
   programs the simulator runs, executed across OS processes against the
   [Repro_net.Socket_net] coordinator.

     net_node coord --algo crash -n 64 --hosts 4 --port 7421
     net_node node  --algo crash --connect 127.0.0.1:7421 --host-index 2
     net_node local --algo crash -n 64 --hosts 4 --check-sim

   [local] is the single-machine form: it binds an ephemeral port, forks
   the host processes itself and runs the coordinator in the parent —
   the E12 experiment and the CI smoke stage use it. *)
(* Stdout reporting is this executable's purpose; relax the library
   print rule for the whole file rather than annotating every line. *)
[@@@lint.allow "D5"]


module CR = Repro_renaming.Crash_renaming
module BZ = Repro_renaming.Byzantine_renaming
module FL = Repro_renaming.Flooding_renaming
module HV = Repro_renaming.Halving_renaming
module Runner = Repro_renaming.Runner
module E = Repro_renaming.Experiment
module Oracle = Repro_check.Oracle
module Fuzzer = Repro_check.Fuzzer
module SN = Repro_net.Socket_net
module Ilog = Repro_util.Ilog
open Cmdliner

type algo = Crash | Halving | Flooding | Byz

let algo_name = function
  | Crash -> "crash"
  | Halving -> "halving"
  | Flooding -> "flooding"
  | Byz -> "byz"

(* {2 Host side: instantiate the transport at the protocol's message
   type and apply its [Make_node] functor.} *)

(* Byzantine runs draw the committee pool as [Experiment] does (and so
   [renaming_cli byz] and the benchmark): Θ(log n) expected members. The
   paper's pool constant puts every node on the committee at the sizes a
   socket run reaches, and breaks the bit budget the oracles check. *)
let byz_params ~namespace ~shared_seed ~n =
  {
    (BZ.default_params ~namespace ~shared_seed) with
    pool_probability = `Fixed (E.committee_pool_probability ~n);
  }

let node_main ~algo ~fd ~host_index =
  match algo with
  | Crash ->
      let module H = SN.Host (CR.Msg) in
      let module P = CR.Make_node (H) in
      H.run ~fd ~host_index ~program:(fun ~extra:_ ctx ->
          P.program CR.experiment_params ctx)
  | Halving ->
      let module H = SN.Host (CR.Msg) in
      let module P = HV.Make_node (H) in
      H.run ~fd ~host_index ~program:(fun ~extra:_ ctx -> P.program ctx)
  | Flooding ->
      let module H = SN.Host (FL.Msg) in
      let module P = FL.Make_node (H) in
      H.run ~fd ~host_index ~program:(fun ~extra ctx ->
          let f = int_of_string (String.trim extra) in
          P.program { FL.rounds = `Tolerate f } ctx)
  | Byz ->
      let module H = SN.Host (BZ.Msg) in
      let module P = BZ.Make_node (H) in
      (* [P.program params] is applied once per host, so the host's
         nodes share its committee-pool cache and the pool is drawn
         once; [params] needs the config's [n], which every node sees. *)
      H.run ~fd ~host_index ~program:(fun ~extra ->
          let namespace, shared_seed =
            Scanf.sscanf extra " %d %d" (fun a b -> (a, b))
          in
          let program = ref None in
          fun ctx ->
            match !program with
            | Some p -> p ctx
            | None ->
                let p =
                  P.program (byz_params ~namespace ~shared_seed ~n:(H.n ctx))
                in
                program := Some p;
                p ctx)

(* The coordinator never decodes payloads, so the application-level
   parameters ride to every host in the opaque handshake blob; only the
   coordinator's command line chooses them. *)
let extra_of ~algo ~namespace ~seed ~faults =
  match algo with
  | Crash | Halving -> ""
  | Flooding -> string_of_int faults
  | Byz -> Printf.sprintf "%d %d" namespace seed

(* {2 Run options} *)

(* What [coord] and [local] share: every option but [--port], checked
   and resolved once, with the identities and the hosts' config derived
   from them. *)
type opts = {
  algo : algo;
  n : int;
  namespace : int;
  n_hosts : int;
  seed : int;
  faults : int;
  max_rounds : int;
  bits_out : string option;
  check_sim : bool;
  ids : int array;
  config : SN.config;
}

(* {2 Assessment: the same oracles the fuzzer applies, with fault-free
   theorem-shaped expectations.} *)

let expectations { algo; n; namespace; max_rounds; _ } : Oracle.expectations =
  let lg = Ilog.ceil_log2 (max 2 n) in
  match algo with
  | Crash | Halving ->
      {
        round_bound = Fuzzer.crash_round_bound ~n;
        target = n;
        max_faults = 0;
        (* the fuzzer's fault-free crash budget; [Halving] is all-to-all,
           so scale by the committee blow-up n / log n *)
        bit_budget =
          Fuzzer.crash_bit_budget ~n ~namespace ~f:0
          * (match algo with Halving -> max 1 (n / max 1 lg) | _ -> 1);
        max_msg_bits = Fuzzer.crash_max_msg_bits ~n ~namespace;
        order_preserving = false;
      }
  | Flooding ->
      (* The baseline's whole point is Ω(n log N)-bit messages: no
         per-message or total-bit claim to enforce. *)
      {
        round_bound = max_rounds;
        target = n;
        max_faults = 0;
        bit_budget = max_int;
        max_msg_bits = max_int;
        order_preserving = true;
      }
  | Byz ->
      {
        round_bound = Fuzzer.byz_round_bound;
        target = n;
        max_faults = 0;
        bit_budget = Fuzzer.byz_bit_budget ~n ~namespace ~f:0;
        max_msg_bits = Fuzzer.byz_max_msg_bits ~namespace;
        order_preserving = true;
      }

(* Per-link accounting for [--bits-out], filled from [SN.serve]'s
   [?on_message] hook: [.(src_slot).(dst_slot)] messages and bits. *)
type links = { link_msgs : int array array; link_bits : int array array }

let new_links n =
  {
    link_msgs = Array.init n (fun _ -> Array.make n 0);
    link_bits = Array.init n (fun _ -> Array.make n 0);
  }

let count_link { link_msgs; link_bits } ~src ~dst ~bits =
  link_msgs.(src).(dst) <- link_msgs.(src).(dst) + 1;
  link_bits.(src).(dst) <- link_bits.(src).(dst) + bits

let write_links_json path { algo; n; n_hosts; seed; _ } { link_msgs; link_bits }
    (a : Runner.assessment) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema\": \"net-links/v1\",\n  \"algo\": %S,\n  \"n\": %d,\n\
    \  \"n_hosts\": %d,\n  \"seed\": %d,\n  \"rounds\": %d,\n\
    \  \"messages\": %d,\n  \"bits\": %d,\n  \"links\": [" (algo_name algo)
    n n_hosts seed a.Runner.rounds a.Runner.messages a.Runner.bits;
  let first = ref true in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if link_msgs.(src).(dst) > 0 then begin
        if not !first then output_string oc ",";
        first := false;
        Printf.fprintf oc
          "\n    { \"src\": %d, \"dst\": %d, \"msgs\": %d, \"bits\": %d }"
          src dst
          link_msgs.(src).(dst)
          link_bits.(src).(dst)
      end
    done
  done;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* In-process reference run with identical inputs: a fault-free socket
   execution must reproduce its assignments and accounting exactly. *)
let sim_assessment { algo; namespace; seed; faults; ids; _ } =
  match algo with
  | Crash -> Runner.assess (CR.run ~ids ~seed ())
  | Halving -> Runner.assess (HV.run ~ids ~seed ())
  | Flooding ->
      Runner.assess
        (FL.run ~params:{ FL.rounds = `Tolerate faults } ~ids ~seed ())
  | Byz ->
      Runner.assess
        (BZ.run
           ~params:
             (byz_params ~namespace ~shared_seed:seed ~n:(Array.length ids))
           ~ids ~seed ())

let compare_with_sim o (socket_a : Runner.assessment) =
  let sim = sim_assessment o in
  let mismatches = ref [] in
  let check name pp a b =
    if a <> b then
      mismatches :=
        Printf.sprintf "%s: socket %s, sim %s" name (pp a) (pp b)
        :: !mismatches
  in
  check "assignments"
    (fun l ->
      String.concat ";"
        (List.map (fun (o, v) -> Printf.sprintf "%d->%d" o v) l))
    socket_a.Runner.assignments sim.Runner.assignments;
  check "messages" string_of_int socket_a.Runner.messages sim.Runner.messages;
  check "bits" string_of_int socket_a.Runner.bits sim.Runner.bits;
  check "rounds" string_of_int socket_a.Runner.rounds sim.Runner.rounds;
  List.rev !mismatches

(* Run the coordinator on [listen] and assess the outcome; the exit
   code. *)
let serve_and_report ~listen o =
  let stats = Oracle.new_stats () in
  (* The transport enforces the codec round-trip (hosts reject any
     undecodable delivery), so every billed message is wire-ok here. *)
  (* The per-link matrix is built only when [--bits-out] asks for it.
     The per-copy hook is chosen once here: it runs for every billed
     message, so it must build no closure of its own. *)
  let bits_out = Option.map (fun path -> (path, new_links o.n)) o.bits_out in
  let on_message =
    match bits_out with
    | None ->
        fun ~src:_ ~dst:_ ~bits ->
          Oracle.observe_honest stats ~bits ~wire_ok:true
    | Some (_, links) ->
        fun ~src ~dst ~bits ->
          Oracle.observe_honest stats ~bits ~wire_ok:true;
          count_link links ~src ~dst ~bits
  in
  let res =
    SN.serve ~listen ~config:o.config ~max_rounds:o.max_rounds ~on_message ()
  in
  let a = Runner.assess res.SN.run in
  Format.printf "socket backend: %s over %d hosts@." (algo_name o.algo)
    o.n_hosts;
  Format.printf "%a@." Runner.pp a;
  Format.printf "frame bytes: host->coordinator %d coordinator->host %d@."
    res.SN.bytes_read res.SN.bytes_written;
  Option.iter
    (fun (path, links) ->
      write_links_json path o links a;
      Format.printf "per-link accounting written to %s@." path)
    bits_out;
  let verdict =
    Oracle.check (expectations o) a res.SN.run.Repro_sim.Engine.metrics stats
  in
  List.iter
    (fun s -> Format.printf "VIOLATION %s@." s)
    verdict.Oracle.violations;
  let sim_mismatches =
    if o.check_sim then begin
      let ms = compare_with_sim o a in
      if ms = [] then
        Format.printf "sim check: socket run matches the simulator exactly@."
      else List.iter (fun s -> Format.printf "SIM MISMATCH %s@." s) ms;
      ms
    end
    else []
  in
  if Oracle.failed verdict || sim_mismatches <> [] then 1 else 0

(* {2 Sockets and process plumbing} *)

let listen_on ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let actual =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, actual)

let connect_to ~addr ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (addr, port));
  fd

(* A socket that cannot bind or connect is reported on one stderr line
   naming the address and the error, exit 1: the arguments were fine,
   the network refused them. *)
let on_socket_error cmd ~what ~host ~port f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "net_node %s: cannot %s %s:%d: %s\n" cmd what host port
        (Unix.error_message e);
      exit 1

(* {2 Commands} *)

let algo_arg =
  let algo_conv =
    Arg.enum
      [
        ("crash", Crash);
        ("halving", Halving);
        ("flooding", Flooding);
        ("byz", Byz);
      ]
  in
  Arg.(
    value & opt algo_conv Crash
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Protocol: $(b,crash), $(b,halving), $(b,flooding), $(b,byz).")

let n_arg =
  Arg.(
    value & opt int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let namespace_arg =
  Arg.(
    value
    & opt int 0
    & info [ "N"; "namespace" ] ~docv:"NS"
        ~doc:"Original namespace size (default: 64·n).")

let hosts_arg =
  Arg.(
    value & opt int 4
    & info [ "hosts" ] ~docv:"H" ~doc:"Number of host processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let faults_arg =
  Arg.(
    value & opt int 0
    & info [ "f"; "faults" ] ~docv:"F"
        ~doc:"Fault tolerance parameter (flooding round count).")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 (0 picks an ephemeral port).")

let max_rounds_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-rounds" ] ~docv:"R" ~doc:"Deadlock guard.")

let bits_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bits-out" ] ~docv:"FILE"
        ~doc:"Write per-link message/bit accounting as JSON to $(docv).")

let check_sim_arg =
  Arg.(
    value & flag
    & info [ "check-sim" ]
        ~doc:
          "Also run the same configuration in-process on the simulator \
           and require identical assignments, message count, bit count \
           and round count.")

(* Bad arguments are reported before anything forks, listens or
   connects: the problem, the subcommand's usage line, exit 2. *)
let usage_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "net_node %s: %s\nUsage: net_node %s [OPTION]…\n\
         Try 'net_node %s --help' for more information.\n"
        cmd msg cmd cmd;
      exit 2)
    fmt

(* An output file that cannot be created is reported before anything
   runs, on one line naming the path, exit 2. The probe neither
   truncates nor rewrites an existing file. *)
let check_writable cmd flag path =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error m ->
      Printf.eprintf "net_node %s: %s: cannot write %s\n" cmd flag m;
      exit 2

let check_port cmd ~min port =
  if port < min || port > 65535 then
    usage_error cmd "port must be in [%d, 65535], got %d" min port

(* [coord]'s and [local]'s run options; [cmd] names the subcommand in
   usage errors. *)
let opts_term cmd =
  let make algo n namespace n_hosts seed faults max_rounds bits_out check_sim
      =
    if n < 1 then usage_error cmd "-n must be at least 1, got %d" n;
    if n_hosts < 1 || n_hosts > n then
      usage_error cmd "--hosts must be in [1, n] = [1, %d], got %d" n n_hosts;
    if namespace <> 0 && namespace < n then
      usage_error cmd "--namespace must be at least n = %d, got %d" n
        namespace;
    Option.iter (check_writable cmd "--bits-out") bits_out;
    let namespace = if namespace = 0 then 64 * n else namespace in
    let ids = E.random_ids ~seed ~namespace ~n in
    let extra = extra_of ~algo ~namespace ~seed ~faults in
    {
      algo;
      n;
      namespace;
      n_hosts;
      seed;
      faults;
      max_rounds;
      bits_out;
      check_sim;
      ids;
      config = { SN.ids; seed; n_hosts; extra };
    }
  in
  Term.(
    const make $ algo_arg $ n_arg $ namespace_arg $ hosts_arg $ seed_arg
    $ faults_arg $ max_rounds_arg $ bits_out_arg $ check_sim_arg)

(* [HOST:PORT], or a bare [PORT] on 127.0.0.1; the host is an IPv4
   literal (the socket is [PF_INET]; no name is looked up). *)
let parse_connect connect =
  let host, port =
    match String.rindex_opt connect ':' with
    | Some i ->
        ( String.sub connect 0 i,
          String.sub connect (i + 1) (String.length connect - i - 1) )
    | None -> ("127.0.0.1", connect)
  in
  let addr =
    match Unix.inet_addr_of_string host with
    | a when Unix.domain_of_sockaddr (Unix.ADDR_INET (a, 0)) = Unix.PF_INET -> a
    | _ | (exception Failure _) ->
        usage_error "node" "--connect: host %S in %S is not an IPv4 address"
          host connect
  in
  match int_of_string_opt port with
  | Some p ->
      check_port "node" ~min:1 p;
      (host, addr, p)
  | None -> usage_error "node" "--connect: bad port %S in %S" port connect

let coord_cmd =
  let run o port =
    check_port "coord" ~min:0 port;
    let listen, port =
      on_socket_error "coord" ~what:"listen on" ~host:"127.0.0.1" ~port
        (fun () -> listen_on ~port)
    in
    Format.printf "coordinator: %s n=%d hosts=%d on 127.0.0.1:%d@."
      (algo_name o.algo) o.n o.n_hosts port;
    Format.print_flush ();
    serve_and_report ~listen o
  in
  Cmd.v
    (Cmd.info "coord"
       ~doc:
         "Run the coordinator: accept host connections, route rounds, \
          assess the outcome.")
    Term.(const run $ opts_term "coord" $ port_arg)

let node_cmd =
  let connect_arg =
    Arg.(
      value
      & opt string "127.0.0.1:7421"
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Coordinator address.")
  in
  let index_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "host-index" ] ~docv:"I"
          ~doc:"This host's index in [0, hosts).")
  in
  let run algo connect host_index =
    let host, addr, port = parse_connect connect in
    if host_index < 0 then
      usage_error "node" "--host-index must be non-negative, got %d" host_index;
    let fd =
      on_socket_error "node" ~what:"connect to" ~host ~port (fun () ->
          connect_to ~addr ~port)
    in
    node_main ~algo ~fd ~host_index;
    0
  in
  Cmd.v
    (Cmd.info "node"
       ~doc:
         "Run one host process: connect to the coordinator and drive \
          this host's slice of node fibers. Protocol parameters arrive \
          from the coordinator at handshake.")
    Term.(const run $ algo_arg $ connect_arg $ index_arg)

let local_cmd =
  let run o =
    let listen, port = listen_on ~port:0 in
    let children =
      Array.init o.n_hosts (fun h ->
          match Unix.fork () with
          | 0 -> (
              (try Unix.close listen with Unix.Unix_error _ -> ());
              match
                node_main ~algo:o.algo
                  ~fd:(connect_to ~addr:Unix.inet_addr_loopback ~port)
                  ~host_index:h
              with
              | () -> Unix._exit 0
              | exception e ->
                  Printf.eprintf "host %d: %s\n%!" h (Printexc.to_string e);
                  Unix._exit 1)
          | pid -> pid)
    in
    let code = serve_and_report ~listen o in
    let child_failures = ref 0 in
    Array.iter
      (fun pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> incr child_failures)
      children;
    if !child_failures > 0 then
      Format.printf "note: %d host processes exited abnormally@."
        !child_failures;
    code
  in
  Cmd.v
    (Cmd.info "local"
       ~doc:
         "Single-machine run: fork the host processes, run the \
          coordinator in this one, assess the outcome.")
    Term.(const run $ opts_term "local")

(* Cmdliner's parse errors (unknown option, malformed value, missing
   argument) exit 2 like the range checks above; cmdliner has already
   printed the usage text on stderr. *)
let () =
  let info =
    Cmd.info "net_node" ~version:"1.0.0"
      ~doc:"Multi-process socket backend for the renaming protocols."
  in
  match Cmd.eval' (Cmd.group info [ coord_cmd; node_cmd; local_cmd ]) with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
