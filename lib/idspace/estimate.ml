let log_inverse_gap view id =
  if Ring.View.cardinal view < 2 then
    invalid_arg "Estimate.log_inverse_gap: need >= 2 IDs";
  let succ =
    match Ring.View.strict_successor view id with Some s -> s | None -> assert false
  in
  let gap_units = Point.distance_cw id succ in
  let gap = Int64.to_float gap_units /. Int64.to_float Point.modulus in
  (* Adjacent distinct IDs are at least one unit apart, so gap > 0. *)
  -.log gap

let ln_n view id = Float.max 1. (log_inverse_gap view id)

let ln_ln_n view id = Float.max 1. (log (ln_n view id))

let group_size ~d view id =
  let size = int_of_float (ceil (d *. ln_ln_n view id)) in
  max 3 size

let exact_ln_ln n =
  if n < 3 then 1.
  else Float.max 1. (log (log (float_of_int n)))
