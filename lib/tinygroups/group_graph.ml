open Idspace
open Adversary

type color = Blue | Red

(* Flat representation, aligned to the population's sorted ring: the
   group led by the ID of rank [r] lives at [group_by_rank.(r)], and
   confused/suspect are rank-indexed bitmaps. Leader lookup goes
   through a linear-probing open-addressing table over unboxed u62
   keys (load factor <= 1/2), so [group_of] is a couple of int-array
   probes instead of a boxed-int64 hash + bucket chase. *)
type t = {
  params : Params.t;
  population : Population.t;
  overlay : Overlay.Overlay_intf.t;
  ring : Ring.t;  (* = Population.ring population, the rank space *)
  slot_key : int array;  (* open addressing; -1 = empty *)
  slot_rank : int array;
  slot_mask : int;
  group_by_rank : Group.t array;
  confused_bits : Bytes.t;
  suspect_bits : Bytes.t;
  mutable blue_cache : Point.t array option;
}

let params t = t.params
let population t = t.population
let overlay t = t.overlay

(* -- bitmaps ------------------------------------------------------- *)

let bitmap n = Bytes.make ((n + 7) lsr 3) '\x00'

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

(* -- leader -> rank table ------------------------------------------ *)

let table_capacity n =
  let c = ref 16 in
  while !c < 2 * n do
    c := !c * 2
  done;
  !c

let make_slots ring =
  let n = Ring.cardinal ring in
  let cap = table_capacity n in
  let mask = cap - 1 in
  let slot_key = Array.make cap (-1) in
  let slot_rank = Array.make cap 0 in
  for r = 0 to n - 1 do
    let k = Point.to_key (Ring.nth ring r) in
    let i = ref (k land mask) in
    while slot_key.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slot_key.(!i) <- k;
    slot_rank.(!i) <- r
  done;
  (slot_key, slot_rank, mask)

(* Rank of a leader, or -1 when the point leads no group. *)
let rank_of t p =
  let k = Point.to_key p in
  let mask = t.slot_mask in
  let i = ref (k land mask) in
  let rank = ref (-2) in
  while !rank = -2 do
    let sk = Array.unsafe_get t.slot_key !i in
    if sk = k then rank := Array.unsafe_get t.slot_rank !i
    else if sk < 0 then rank := -1
    else i := (!i + 1) land mask
  done;
  !rank

(* -- construction -------------------------------------------------- *)

let make ~params ~population ~overlay ~group_by_rank ~confused ~suspect =
  let ring = Population.ring population in
  let n = Ring.cardinal ring in
  let slot_key, slot_rank, slot_mask = make_slots ring in
  let confused_bits = bitmap n and suspect_bits = bitmap n in
  let mark bits what p =
    let r = Ring.rank ring p in
    if r < 0 then invalid_arg ("Group_graph.assemble: " ^ what ^ " leader not in population");
    bit_set bits r
  in
  List.iter (mark confused_bits "confused") confused;
  List.iter (mark suspect_bits "suspect") suspect;
  {
    params;
    population;
    overlay;
    ring;
    slot_key;
    slot_rank;
    slot_mask;
    group_by_rank;
    confused_bits;
    suspect_bits;
    blue_cache = None;
  }

module Builder = struct
  type b = {
    params : Params.t;
    population : Population.t;
    member_oracle : Hashing.Oracle.t;
    ring : Ring.t;
    view : Ring.View.t;  (* [ring], for the size estimate *)
    mutable scratch : int array;  (* successor ranks of the draws *)
  }

  let create ~params ~population ~member_oracle =
    let ring = Population.ring population in
    {
      params;
      population;
      member_oracle;
      ring;
      view = Ring.View.of_ring ring;
      scratch = Array.make 64 0;
    }

  (* Fill [scratch] with the ranks of [suc(oracle(w, i))] for
     [i = 1 .. draws], in draw order; returns [draws]. This is the
     one member-draw code path — build, benches and the join protocol
     estimate all route through it. *)
  let draw_ranks b w =
    let ln_ln_estimate = Estimate.ln_ln_n b.view w in
    let draws = Params.member_draws_estimated b.params ~ln_ln_estimate in
    if Array.length b.scratch < draws then b.scratch <- Array.make (2 * draws) 0;
    let wk = Point.to_u62 w in
    for i = 1 to draws do
      let u = Hashing.Oracle.query_indexed b.member_oracle wk i in
      b.scratch.(i - 1) <- Ring.successor_rank b.ring (Int64.to_int u)
    done;
    draws

  let draw_members b w =
    let draws = draw_ranks b w in
    List.init draws (fun i -> Ring.nth b.ring b.scratch.(i))

  let form_group b w =
    let draws = draw_ranks b w in
    if draws = 0 then Group.form b.params b.population ~leader:w ~members:[]
    else begin
      let s = b.scratch in
      (* Sort the dozen-or-so ranks in place (rank order is ring
         order) and squeeze out duplicates — no per-group lists. *)
      for i = 1 to draws - 1 do
        let v = s.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && s.(!j) > v do
          s.(!j + 1) <- s.(!j);
          decr j
        done;
        s.(!j + 1) <- v
      done;
      let m = ref 1 in
      for i = 1 to draws - 1 do
        if s.(i) <> s.(!m - 1) then begin
          s.(!m) <- s.(i);
          incr m
        end
      done;
      let members = Array.init !m (fun i -> Ring.nth b.ring s.(i)) in
      Group.of_sorted_members b.params b.population ~leader:w ~members
    end
end

let draw_members ~params ~population ~member_oracle w =
  Builder.draw_members (Builder.create ~params ~population ~member_oracle) w

let build_direct ?(jobs = 1) ~params ~population ~overlay ~member_oracle () =
  let ring = Population.ring population in
  let n = Ring.cardinal ring in
  if n < 3 then invalid_arg "Group_graph.build_direct: population too small";
  let jobs = max 1 (min jobs n) in
  let group_by_rank =
    if jobs = 1 then begin
      let b = Builder.create ~params ~population ~member_oracle in
      Array.init n (fun rank -> Builder.form_group b (Ring.nth ring rank))
    end
    else begin
      (* Deterministic rank-split: every group is a pure function of
         (ring, oracle, rank), so slicing [0, n) into [jobs]
         contiguous rank ranges — fixed before any work is scheduled
         — makes the fan-out trivially schedule-independent. Each
         slice gets its own builder (the scratch buffer is the only
         mutable state) and the slices are concatenated in rank
         order, so the result is byte-identical at every [jobs]. *)
      let chunk = (n + jobs - 1) / jobs in
      let slices =
        List.init jobs (fun i -> (i * chunk, min n ((i + 1) * chunk)))
      in
      let pieces =
        Parallel.Pool.with_pool ~jobs (fun pool ->
            Parallel.Pool.map pool
              (fun (lo, hi) ->
                let b = Builder.create ~params ~population ~member_oracle in
                Array.init (hi - lo) (fun i ->
                    Builder.form_group b (Ring.nth ring (lo + i))))
              slices)
      in
      Array.concat pieces
    end
  in
  make ~params ~population ~overlay ~group_by_rank ~confused:[] ~suspect:[]

let assemble ~params ~population ~overlay ~groups ~confused ?(suspect = []) () =
  let ring = Population.ring population in
  let n = Ring.cardinal ring in
  let slots = Array.make n None in
  let count = ref 0 in
  List.iter
    (fun (leader, g) ->
      let r = Ring.rank ring leader in
      if r < 0 then invalid_arg "Group_graph.assemble: leader not in population";
      if slots.(r) <> None then invalid_arg "Group_graph.assemble: duplicate leader";
      slots.(r) <- Some g;
      incr count)
    groups;
  if !count <> n then invalid_arg "Group_graph.assemble: missing groups";
  let group_by_rank =
    Array.map (function Some g -> g | None -> assert false) slots
  in
  make ~params ~population ~overlay ~group_by_rank ~confused ~suspect

(* -- structural equality ------------------------------------------- *)

(* Rank-aligned deep comparison: same leaders in rank order, identical
   member sets, ground-truth labels and health per group, identical
   confused/suspect bitmaps. This is the gate behind every
   jobs-invariance assertion — the parallel build and transition paths
   must produce a graph [equal] to the sequential one. *)
let equal a b =
  let n = Array.length a.group_by_rank in
  n = Array.length b.group_by_rank
  &&
  let ok = ref true in
  let r = ref 0 in
  while !ok && !r < n do
    let i = !r in
    let ga = Array.unsafe_get a.group_by_rank i
    and gb = Array.unsafe_get b.group_by_rank i in
    if
      (not (Point.equal (Ring.nth a.ring i) (Ring.nth b.ring i)))
      || (not (Point.equal ga.Group.leader gb.Group.leader))
      || ga.Group.health <> gb.Group.health
      || ga.Group.bad_members <> gb.Group.bad_members
      || Array.length ga.Group.members <> Array.length gb.Group.members
      || (not (Array.for_all2 Point.equal ga.Group.members gb.Group.members))
      || bit_get a.confused_bits i <> bit_get b.confused_bits i
      || bit_get a.suspect_bits i <> bit_get b.suspect_bits i
    then ok := false;
    incr r
  done;
  !ok

(* -- queries ------------------------------------------------------- *)

let group_of t p =
  let r = rank_of t p in
  if r < 0 then raise Not_found;
  Array.unsafe_get t.group_by_rank r

let is_suspect t p =
  let r = rank_of t p in
  r >= 0 && bit_get t.suspect_bits r

let color_of t p =
  let r = rank_of t p in
  if r < 0 then raise Not_found;
  let g = Array.unsafe_get t.group_by_rank r in
  if g.Group.health = Group.Good && not (bit_get t.confused_bits r) then Blue else Red

let hijacked t p =
  let r = rank_of t p in
  if r < 0 then raise Not_found;
  let g = Array.unsafe_get t.group_by_rank r in
  g.Group.health = Group.Hijacked || bit_get t.confused_bits r

let mark_confused t p =
  let r = rank_of t p in
  if r < 0 then invalid_arg "Group_graph.mark_confused: not a leader";
  bit_set t.confused_bits r;
  t.blue_cache <- None

let mark_suspect t p =
  let r = rank_of t p in
  if r < 0 then invalid_arg "Group_graph.mark_suspect: not a leader";
  bit_set t.suspect_bits r;
  t.blue_cache <- None

let leaders t = Ring.to_sorted_array t.ring

let n_groups t = Array.length t.group_by_rank

let confused_leaders t =
  let acc = ref [] in
  for r = Array.length t.group_by_rank - 1 downto 0 do
    if bit_get t.confused_bits r then acc := Ring.nth t.ring r :: !acc
  done;
  !acc

(* -- iteration ------------------------------------------------------ *)

(* Ring order, rank 0 upward — the seed implementation's Hashtbl
   bucket order (and the lazy permutation that replayed it after the
   flat rewrite) was retired at the 2026-08 digest regeneration; see
   DESIGN.md §7 and the provenance appendix in EXPERIMENTS.md. The
   order is part of the digest contract: order-sensitive sweeps
   (PRNG-consuming trials, float accumulations, first-k picks)
   consume it, and a qcheck case pins it to [leaders]. *)
let iter_groups f t =
  let n = Array.length t.group_by_rank in
  for rank = 0 to n - 1 do
    f (Ring.nth t.ring rank) (Array.unsafe_get t.group_by_rank rank)
  done

let fold_groups f t init =
  let acc = ref init in
  iter_groups (fun leader g -> acc := f leader g !acc) t;
  !acc

(* -- aggregates ---------------------------------------------------- *)

type census = {
  total : int;
  good : int;
  weak : int;
  hijacked_ : int;
  confused_ : int;
  suspect_ : int;
  red : int;
}

let census t =
  let total = Array.length t.group_by_rank in
  let good = ref 0 and weak = ref 0 and hij = ref 0 in
  let conf = ref 0 and susp = ref 0 and red = ref 0 in
  for r = 0 to total - 1 do
    let g = Array.unsafe_get t.group_by_rank r in
    (match g.Group.health with
    | Group.Good -> incr good
    | Group.Weak -> incr weak
    | Group.Hijacked -> incr hij);
    let is_conf = bit_get t.confused_bits r in
    if is_conf then incr conf;
    if bit_get t.suspect_bits r then incr susp;
    if g.Group.health <> Group.Good || is_conf then incr red
  done;
  {
    total;
    good = !good;
    weak = !weak;
    hijacked_ = !hij;
    confused_ = !conf;
    suspect_ = !susp;
    red = !red;
  }

let fraction_red t =
  let c = census t in
  float_of_int c.red /. float_of_int (max 1 c.total)

let blue_leaders t =
  match t.blue_cache with
  | Some blue -> blue
  | None ->
      (* Ascending ring order, like every other leader enumeration
         (the seed's counter-clockwise layout went with the legacy
         shims at the digest regeneration). Sweeps index it with raw
         PRNG draws, so the layout is digest-relevant. *)
      let acc = ref [] in
      let n = Array.length t.group_by_rank in
      for r = n - 1 downto 0 do
        let g = Array.unsafe_get t.group_by_rank r in
        if g.Group.health = Group.Good && not (bit_get t.confused_bits r) then
          acc := Ring.nth t.ring r :: !acc
      done;
      let blue = Array.of_list !acc in
      t.blue_cache <- Some blue;
      blue

let random_blue_leader rng t =
  let blue = blue_leaders t in
  if Array.length blue = 0 then None else Some blue.(Prng.Rng.int rng (Array.length blue))

let mean_group_size t =
  let total = Array.fold_left (fun acc g -> acc + Group.size g) 0 t.group_by_rank in
  float_of_int total /. float_of_int (max 1 (Array.length t.group_by_rank))

let groups_per_id t =
  let counts : (Point.t, int) Hashtbl.t = Hashtbl.create (2 * n_groups t) in
  iter_groups
    (fun _ (g : Group.t) ->
      Array.iter
        (fun m ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts m) in
          Hashtbl.replace counts m (c + 1))
        g.Group.members)
    t;
  counts
