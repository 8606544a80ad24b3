open Idspace

(* Both sides live in flat sorted rings: [is_bad] is a binary search
   over unboxed keys and [bad_ids]/[bad_ring] are O(1)-ish snapshots
   instead of set traversals. [good_cache] memoises the good-ID array
   (the population is immutable; functional updates build new records
   with a fresh cache). *)
type t = { ring : Ring.t; bad : Ring.t; mutable good_cache : Point.t array option }

let make ~good ~bad =
  let bad_ring = Ring.of_list bad in
  if Ring.cardinal bad_ring <> List.length bad then
    invalid_arg "Population.make: duplicate bad IDs";
  List.iter
    (fun g ->
      if Ring.mem g bad_ring then invalid_arg "Population.make: good/bad overlap")
    good;
  let ring = Ring.of_list (good @ bad) in
  if Ring.cardinal ring <> List.length good + List.length bad then
    invalid_arg "Population.make: duplicate good IDs";
  { ring; bad = bad_ring; good_cache = None }

let generate rng ~n ~beta ~strategy =
  if beta < 0. || beta >= 1. then invalid_arg "Population.generate: beta out of [0,1)";
  let bad_budget = int_of_float (ceil (beta *. float_of_int n)) in
  let bad = Placement.draw rng strategy ~budget:bad_budget in
  let bad_ring = Ring.of_list bad in
  let seen = Hashtbl.create (2 * n) in
  let rec draw_good acc k =
    if k = 0 then acc
    else begin
      let p = Point.random rng in
      if Ring.mem p bad_ring || Hashtbl.mem seen (Point.to_key p) then draw_good acc k
      else begin
        Hashtbl.add seen (Point.to_key p) ();
        draw_good (p :: acc) (k - 1)
      end
    end
  in
  let good = draw_good [] (n - List.length bad) in
  make ~good ~bad

let ring t = t.ring
let bad_ring t = t.bad
let n t = Ring.cardinal t.ring
let is_bad t p = Ring.mem p t.bad
let bad_count t = Ring.cardinal t.bad
let beta_actual t = float_of_int (bad_count t) /. float_of_int (max 1 (n t))

let all_ids t = Ring.to_sorted_array t.ring

(* Ascending ring order (the seed's counter-clockwise prepend layout
   was retired with the legacy-order shims at the 2026-08 digest
   regeneration). PRNG-indexed sweeps rely on the layout, so it is
   digest-relevant. *)
let good_ids_cached t =
  match t.good_cache with
  | Some g -> g
  | None ->
      let acc = ref [] in
      Ring.iter (fun p -> if not (Ring.mem p t.bad) then acc := p :: !acc) t.ring;
      let g = Array.of_list (List.rev !acc) in
      t.good_cache <- Some g;
      g

let good_ids t = Array.copy (good_ids_cached t)

let bad_ids t = Ring.to_sorted_array t.bad

let remove_batch t ps =
  { ring = Ring.remove_batch ps t.ring; bad = Ring.remove_batch ps t.bad; good_cache = None }

let add_batch t ~good ~bad =
  let all = good @ bad in
  List.iter
    (fun p ->
      if Ring.mem p t.ring then
        invalid_arg "Population.add_batch: ID already present")
    all;
  let ring = Ring.add_batch all t.ring in
  (* [Ring.add_batch] absorbs intra-list duplicates; reject them
     instead, as a present ID is rejected. *)
  if Ring.cardinal ring <> Ring.cardinal t.ring + List.length all then
    invalid_arg "Population.add_batch: duplicate IDs in batch";
  { ring; bad = Ring.add_batch bad t.bad; good_cache = None }

let random_good rng t =
  let good = good_ids_cached t in
  if Array.length good = 0 then invalid_arg "Population.random_good: no good IDs";
  good.(Prng.Rng.int rng (Array.length good))
