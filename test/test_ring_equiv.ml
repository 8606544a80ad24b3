(* qcheck equivalence suite for the flat-array [Idspace.Ring]: the
   seed's Set-based ring lives on here as a test-only reference
   implementation, and every query of the new ring is property-checked
   against it over random point sets — including wrap-around probes
   near the top of the ID space and singleton rings. *)

open Idspace

(* The seed implementation, verbatim (minus [populate], whose draw
   parity is checked separately below). *)
module Ref_ring = struct
  module Pset = Set.Make (struct
    type t = Point.t

    let compare = Point.compare
  end)

  let of_list ps = Pset.of_list ps
  let add = Pset.add
  let remove = Pset.remove
  let cardinal = Pset.cardinal

  let successor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_first_opt (fun id -> Point.compare id x >= 0) t with
      | Some id -> Some id
      | None -> Some (Pset.min_elt t)

  let strict_successor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_first_opt (fun id -> Point.compare id x > 0) t with
      | Some id -> Some id
      | None -> Some (Pset.min_elt t)

  let predecessor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_last_opt (fun id -> Point.compare id x < 0) t with
      | Some id -> Some id
      | None -> Some (Pset.max_elt t)

  let responsibility t id =
    if not (Pset.mem id t) then None
    else
      match predecessor t id with
      | None -> None
      | Some p ->
          if Point.equal p id then Some Interval.full
          else Some (Interval.make ~from:p ~until:id)

  let to_sorted_array t = Array.of_list (Pset.elements t)

  let random_member rng t =
    let n = Pset.cardinal t in
    if n = 0 then invalid_arg "Ring.random_member: empty ring";
    let k = Prng.Rng.int rng n in
    let found = ref None in
    let i = ref 0 in
    (try
       Pset.iter
         (fun id ->
           if !i = k then begin
             found := Some id;
             raise Exit
           end;
           incr i)
         t
     with Exit -> ());
    match !found with Some id -> id | None -> assert false
end

(* Deterministic int -> point embedding. Masking [mix] to u62 keeps
   the generator uniform-ish over the whole space; small inputs also
   get mapped near the ends of the space below to force wrap-around. *)
let point_of_int i =
  Point.of_u62 (Int64.logand (Prng.Splitmix.mix (Int64.of_int i)) (Int64.sub (Int64.shift_left 1L 62) 1L))

let top = Int64.sub (Int64.shift_left 1L 62) 1L

(* Points hugging both ends of the ID space, where successor queries
   wrap. *)
let edge_points =
  List.map Point.of_u62 [ 0L; 1L; 2L; top; Int64.sub top 1L; Int64.sub top 2L ]

let points_gen =
  QCheck.Gen.(
    let* base = list_size (int_bound 48) (map point_of_int int) in
    let* edges = list_size (int_bound 4) (oneofl edge_points) in
    return (base @ edges))

let points_arb =
  QCheck.make points_gen ~print:(fun ps ->
      String.concat ";" (List.map Point.to_string ps))

(* Probes: arbitrary points plus the members themselves and their
   direct key-space neighbours (the off-by-one cases binary search
   gets wrong first). *)
let probes_of ps extra =
  let nudge p d = Point.add_cw p d in
  List.concat_map (fun p -> [ p; nudge p 1L; nudge p (Int64.sub Point.modulus 1L) ]) ps
  @ edge_points @ extra

let both ps = (Ring.of_list ps, Ref_ring.of_list ps)

let opt_point_eq = Option.equal Point.equal

let ival_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Point.equal (Interval.from_ a) (Interval.from_ b)
      && Point.equal (Interval.until_ a) (Interval.until_ b)
  | _ -> false

let prop_queries =
  QCheck.Test.make ~name:"successor/strict/pred/responsibility agree with Set ring"
    ~count:300 points_arb (fun ps ->
      let ring, reference = both ps in
      let extra = List.map point_of_int [ 7777; 8888; 9999 ] in
      List.for_all
        (fun x ->
          opt_point_eq (Ring.successor ring x) (Ref_ring.successor reference x)
          && opt_point_eq (Ring.strict_successor ring x)
               (Ref_ring.strict_successor reference x)
          && opt_point_eq (Ring.predecessor ring x) (Ref_ring.predecessor reference x)
          && ival_eq (Ring.responsibility ring x) (Ref_ring.responsibility reference x))
        (probes_of ps extra))

let prop_cardinal_and_order =
  QCheck.Test.make ~name:"cardinal and sorted order agree with Set ring" ~count:300
    points_arb (fun ps ->
      let ring, reference = both ps in
      Ring.cardinal ring = Ref_ring.cardinal reference
      && Ring.to_sorted_array ring = Ref_ring.to_sorted_array reference)

let prop_random_member_parity =
  QCheck.Test.make
    ~name:"random_member: same pick, exactly the same PRNG consumption" ~count:300
    QCheck.(pair points_arb small_int)
    (fun (ps, seed) ->
      QCheck.assume (ps <> []);
      let ring, reference = both ps in
      let r1 = Prng.Rng.create seed in
      let r2 = Prng.Rng.copy r1 in
      let a = Ring.random_member r1 ring in
      let b = Ref_ring.random_member r2 reference in
      (* Same member chosen, and the two streams remain in lockstep
         afterwards — i.e. both consumed exactly one draw. *)
      Point.equal a b && Prng.Rng.bits64 r1 = Prng.Rng.bits64 r2)

let prop_churn_equiv =
  QCheck.Test.make ~name:"add/remove stay equivalent to the Set ring" ~count:300
    QCheck.(pair points_arb points_arb)
    (fun (initial, churn) ->
      let ring = ref (Ring.of_list initial) in
      let reference = ref (Ref_ring.of_list initial) in
      List.iteri
        (fun i p ->
          if i mod 2 = 0 then begin
            ring := Ring.add p !ring;
            reference := Ref_ring.add p !reference
          end
          else begin
            ring := Ring.remove p !ring;
            reference := Ref_ring.remove p !reference
          end)
        (churn @ initial);
      Ring.to_sorted_array !ring = Ref_ring.to_sorted_array !reference)

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"add_batch/remove_batch = folded add/remove" ~count:300
    QCheck.(pair points_arb points_arb)
    (fun (initial, batch) ->
      let ring = Ring.of_list initial in
      (* Overlapping batch: half fresh points, half already present. *)
      let batch = batch @ (List.filteri (fun i _ -> i mod 2 = 0) initial) in
      let added = Ring.add_batch batch ring in
      let added_seq = List.fold_left (fun t p -> Ring.add p t) ring batch in
      let removed = Ring.remove_batch batch added in
      let removed_seq = List.fold_left (fun t p -> Ring.remove p t) added batch in
      Ring.to_sorted_array added = Ring.to_sorted_array added_seq
      && Ring.to_sorted_array removed = Ring.to_sorted_array removed_seq)

(* Staged inserts: fresh random points, a cluster packed into one gap
   of the base (consecutive keys after a base point, so the buffer and
   the base interleave tightly), both ends of the ID space, and
   repeats of base or earlier points (which must leave the view
   unchanged). *)
let staged_gen =
  QCheck.Gen.(
    let* base =
      oneof [ map (fun p -> [ p ]) (map point_of_int int); points_gen; return [] ]
    in
    let* fresh = list_size (int_bound 12) (map point_of_int int) in
    let* anchor = map point_of_int int in
    let anchor = match base with p :: _ -> p | [] -> anchor in
    let* offsets = list_size (int_bound 8) (int_range 1 40) in
    let cluster = List.map (fun d -> Point.add_cw anchor (Int64.of_int d)) offsets in
    let* edges = list_size (int_bound 3) (oneofl [ Point.zero; Point.of_u62 top ]) in
    let* repeats = list_size (int_bound 3) (oneofl (anchor :: base)) in
    let* inserts = shuffle_l (fresh @ cluster @ edges @ repeats) in
    return (base, inserts))

let staged_arb =
  let show ps = String.concat ";" (List.map Point.to_string ps) in
  QCheck.make staged_gen ~print:(fun (base, inserts) ->
      Printf.sprintf "base [%s] inserts [%s]" (show base) (show inserts))

let prop_view_staged =
  QCheck.Test.make ~name:"staged view answers like the Set ring fold of add" ~count:300
    staged_arb (fun (base, inserts) ->
      let agrees view reference =
        Ring.View.cardinal view = Ref_ring.cardinal reference
        && List.for_all
             (fun x ->
               Ring.View.mem x view = Ref_ring.Pset.mem x reference
               && opt_point_eq
                    (try Some (Ring.View.successor_exn view x) with Not_found -> None)
                    (Ref_ring.successor reference x)
               && opt_point_eq
                    (Ring.View.strict_successor view x)
                    (Ref_ring.strict_successor reference x)
               && opt_point_eq
                    (Ring.View.predecessor view x)
                    (Ref_ring.predecessor reference x))
             (probes_of (base @ inserts) [])
      in
      let view = ref (Ring.View.of_ring (Ring.of_list base)) in
      let reference = ref (Ref_ring.of_list base) in
      agrees !view !reference
      && List.for_all
           (fun p ->
             view := Ring.View.add p !view;
             reference := Ref_ring.add p !reference;
             agrees !view !reference)
           inserts
      && Ring.to_sorted_array (Ring.View.to_ring !view)
         = Ref_ring.to_sorted_array !reference)

let test_singleton () =
  let p = Point.of_float 0.25 in
  let ring = Ring.of_list [ p ] in
  let probe = Point.of_float 0.9 in
  Alcotest.(check bool) "successor wraps" true
    (opt_point_eq (Ring.successor ring probe) (Some p));
  Alcotest.(check bool) "strict successor of the member is itself" true
    (opt_point_eq (Ring.strict_successor ring p) (Some p));
  Alcotest.(check bool) "predecessor wraps" true
    (opt_point_eq (Ring.predecessor ring p) (Some p));
  Alcotest.(check bool) "responsibility is the full ring" true
    (ival_eq (Ring.responsibility ring p) (Some Interval.full));
  let rng = Prng.Rng.create 7 in
  Alcotest.(check bool) "random_member returns the only member" true
    (Point.equal (Ring.random_member rng ring) p)

let test_wraparound_explicit () =
  let lo = Point.of_u62 3L and hi = Point.of_u62 top in
  let ring = Ring.of_list [ lo; hi ] in
  Alcotest.(check bool) "successor past the top wraps to the smallest" true
    (opt_point_eq (Ring.successor ring (Point.of_u62 (Int64.sub top 0L |> Int64.add 0L)))
       (Some hi));
  Alcotest.(check bool) "strict successor of the top is the smallest" true
    (opt_point_eq (Ring.strict_successor ring hi) (Some lo));
  Alcotest.(check bool) "predecessor of the smallest wraps to the top" true
    (opt_point_eq (Ring.predecessor ring lo) (Some hi))

let test_populate_draw_parity () =
  (* [populate] must consume the PRNG exactly as the Set accumulator
     did: draw, reject on collision, redraw. *)
  let r1 = Prng.Rng.create 42 in
  let r2 = Prng.Rng.copy r1 in
  let ring = Ring.populate r1 256 in
  let reference =
    let rec grow acc k =
      if k = 0 then acc
      else
        let p = Point.random r2 in
        if Ref_ring.Pset.mem p acc then grow acc k
        else grow (Ref_ring.Pset.add p acc) (k - 1)
    in
    grow Ref_ring.Pset.empty 256
  in
  Alcotest.(check bool) "same member set" true
    (Ring.to_sorted_array ring = Ref_ring.to_sorted_array reference);
  Alcotest.(check bool) "streams in lockstep afterwards" true
    (Prng.Rng.bits64 r1 = Prng.Rng.bits64 r2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ring-equivalence"
    [
      ( "qcheck",
        [
          q prop_queries;
          q prop_cardinal_and_order;
          q prop_random_member_parity;
          q prop_churn_equiv;
          q prop_batch_equals_sequential;
          q prop_view_staged;
        ] );
      ( "unit",
        [
          Alcotest.test_case "singleton ring" `Quick test_singleton;
          Alcotest.test_case "wrap-around" `Quick test_wraparound_explicit;
          Alcotest.test_case "populate draw parity" `Quick test_populate_draw_parity;
        ] );
    ]
