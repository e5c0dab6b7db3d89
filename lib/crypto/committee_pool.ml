module Bitvec = Repro_util.Bitvec
module Interval = Repro_util.Interval

type t = {
  namespace : int;
  p0 : float;
  member_set : Bitvec.t;  (* candidates over [1, namespace] *)
  kings : int array;  (* the candidates in king order *)
}

let create ~seed ~namespace ~p0 =
  if namespace <= 0 then invalid_arg "Committee_pool.create: namespace";
  let rng = Repro_util.Rng.of_seed (seed lxor 0x0c0_ffee) in
  let member_set = Bitvec.create namespace in
  (* Draw from the top id down: the order the pool's stream fixes. *)
  for id = namespace downto 1 do
    if Repro_util.Rng.bernoulli rng p0 then Bitvec.set member_set id true
  done;
  let kings = Array.make (Bitvec.count_all member_set) 0 in
  let next = ref 0 in
  Bitvec.iter_set member_set (Interval.make 1 namespace) ~f:(fun id ->
      kings.(!next) <- id;
      incr next);
  let shuffle_rng = Repro_util.Rng.of_seed (seed lxor 0x516e_0b1e) in
  Repro_util.Rng.shuffle shuffle_rng kings;
  { namespace; p0; member_set; kings }

let namespace t = t.namespace
let p0 t = t.p0
let members t = Bitvec.ones_in t.member_set (Interval.make 1 t.namespace)
let size t = Array.length t.kings

let mem t id =
  1 <= id && id <= t.namespace && Bitvec.get t.member_set id

let king_order t = Array.to_list t.kings
let fault_threshold t = (size t - 1) / 3

let kings_among t view =
  let view = Array.of_list view in
  (* One scan of the king order, from the back so the list comes out
     in king order without a reversal. *)
  let acc = ref [] in
  for k = Array.length t.kings - 1 downto 0 do
    let id = t.kings.(k) in
    if Repro_util.Sorted.index view id >= 0 then acc := id :: !acc
  done;
  !acc

let paper_p0 ~n ~epsilon0 =
  if n <= 1 then 1.
  else if epsilon0 <= 0. || epsilon0 >= 1. /. 3. then
    invalid_arg "Committee_pool.paper_p0: epsilon0 must be in (0, 1/3)"
  else
    let log_n = log (float_of_int n) /. log 2. in
    let raw =
      8. *. log_n
      /. ((1. -. (3. *. epsilon0)) *. epsilon0 *. epsilon0 *. float_of_int n)
    in
    Float.min 1. (Float.max 0. raw)
