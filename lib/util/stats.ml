type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
      if p < 0. || p > 100. then invalid_arg "Stats.percentile: p";
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      let k = Array.length arr in
      if k = 1 then arr.(0)
      else
        let pos = p /. 100. *. float_of_int (k - 1) in
        let lo = int_of_float (Float.floor pos) in
        let hi = min (lo + 1) (k - 1) in
        let frac = pos -. float_of_int lo in
        (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let n = List.length xs in
      let mu = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. xs
        /. float_of_int n
      in
      {
        n;
        mean = mu;
        stddev = sqrt var;
        min = List.fold_left Float.min Float.infinity xs;
        max = List.fold_left Float.max Float.neg_infinity xs;
        median = percentile xs 50.;
      }

let linear_fit pts =
  let k = List.length pts in
  if k < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let fk = float_of_int k in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  let denom = (fk *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
  let slope = ((fk *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fk in
  (slope, intercept)

let log_log_slope pts =
  let usable =
    List.filter_map
      (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
      pts
  in
  (* Failing inside [linear_fit] here would blame "need >= 2 points" on a
     caller who passed plenty — they were just non-positive and silently
     filtered. Name the real cause. *)
  let k = List.length usable in
  if k < 2 then
    invalid_arg
      (Printf.sprintf
         "Stats.log_log_slope: %d usable points after filtering" k);
  fst (linear_fit usable)
