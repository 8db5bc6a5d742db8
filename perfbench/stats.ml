let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail_percentiles = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile ?(min_beyond = 10) xs =
  let a = sorted_array xs in
  let n = Array.length a in
  (* nearest rank; the epsilon keeps 99.9% of 10000 at 9990, not 9991 *)
  let rank p =
    max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-6)))
  in
  List.find_map
    (fun p ->
      let r = rank p in
      if n > 0 && n - r >= min_beyond then Some (p, a.(r - 1)) else None)
    tail_percentiles

let slope points =
  let n = float_of_int (List.length points) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. points in
  let mx = sum fst /. n and my = sum snd /. n in
  let sxx = sum (fun (x, _) -> (x -. mx) *. (x -. mx)) in
  let sxy = sum (fun (x, y) -> (x -. mx) *. (y -. my)) in
  if List.length points < 2 || sxx = 0. then 0. else sxy /. sxx
