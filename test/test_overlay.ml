(* Input graphs H: path validity against the linking rules (P1/P3),
   load balance (P2), congestion (P4), and construction-specific
   behaviour for Chord, Chord++ and distance-halving. *)

open Idspace

let rng = Prng.Rng.create 555

let mk_ring n = Ring.populate (Prng.Rng.split rng) n

let validate_paths ov n_checks =
  let members = Ring.to_sorted_array ov.Overlay.Overlay_intf.ring in
  for _ = 1 to n_checks do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let path = ov.Overlay.Overlay_intf.route ~src ~key in
    Alcotest.(check bool) "path validates" true (Overlay.Overlay_intf.path_ok ov path key)
  done

let test_chord_paths () = validate_paths (Overlay.Chord.make (mk_ring 1024)) 300
let test_debruijn_paths () = validate_paths (Overlay.Debruijn.make (mk_ring 1024)) 300

let test_route_ends_at_responsible () =
  let ring = mk_ring 512 in
  List.iter
    (fun ov ->
      for _ = 1 to 200 do
        let members = Ring.to_sorted_array ring in
        let src = members.(Prng.Rng.int rng (Array.length members)) in
        let key = Point.random rng in
        let path = ov.Overlay.Overlay_intf.route ~src ~key in
        let last = List.nth path (List.length path - 1) in
        Alcotest.(check bool) "ends at suc(key)" true
          (Point.equal last (Ring.successor_exn ring key))
      done)
    [ Overlay.Chord.make ring; Overlay.Debruijn.make ring ]

let test_route_starts_at_src () =
  let ring = mk_ring 256 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(7) in
  let path = ov.Overlay.Overlay_intf.route ~src ~key:(Point.random rng) in
  Alcotest.(check bool) "starts at src" true (Point.equal (List.hd path) src)

let test_self_route () =
  let ring = mk_ring 64 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(0) in
  (* A key owned by src routes in zero hops. *)
  let path = ov.Overlay.Overlay_intf.route ~src ~key:(Point.to_u62 src |> Point.of_u62) in
  Alcotest.(check int) "single-node path" 1 (List.length path)

let test_chord_log_hops () =
  let ov = Overlay.Chord.make (mk_ring 4096) in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:500 in
  (* lg 4096 = 12; greedy Chord averages ~lg(n)/2 + O(1). *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f below 12" st.mean_hops)
    true (st.mean_hops < 12.);
  Alcotest.(check bool)
    (Printf.sprintf "max %d below 2 lg n + 8" st.max_hops)
    true (st.max_hops <= 32)

let test_debruijn_hop_bound () =
  let ov = Overlay.Debruijn.make (mk_ring 4096) in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:500 in
  (* halving_steps 4096 = 16, plus the successor walk. *)
  Alcotest.(check bool)
    (Printf.sprintf "max %d small" st.max_hops)
    true (st.max_hops <= Overlay.Debruijn.halving_steps 4096 + 8)

let test_chord_fingers_are_successors () =
  let ring = mk_ring 256 in
  let members = Ring.to_sorted_array ring in
  let w = members.(13) in
  let fingers = Overlay.Chord.fingers ring w in
  Alcotest.(check bool) "has fingers" true (List.length fingers > 0);
  (* Each finger must be the successor of w + 2^j for some j (P3:
     verifiable by searches). *)
  List.iter
    (fun f ->
      let ok = ref false in
      for j = 0 to 61 do
        let target = Point.add_cw w (Int64.shift_left 1L j) in
        if Point.equal f (Ring.successor_exn ring target) then ok := true
      done;
      Alcotest.(check bool) "finger verifiable" true !ok)
    fingers

let test_chord_degree_logarithmic () =
  let ov = Overlay.Chord.make (mk_ring 4096) in
  let d = Overlay.Probe.degrees (Prng.Rng.split rng) ov ~sample:100 in
  (* lg 4096 = 12 distinct fingers expected, plus predecessor. *)
  Alcotest.(check bool) (Printf.sprintf "mean degree %.1f ~ lg n" d.mean) true
    (d.mean > 6. && d.mean < 30.)

let test_debruijn_constant_degree () =
  let d4k =
    Overlay.Probe.degrees (Prng.Rng.split rng) (Overlay.Debruijn.make (mk_ring 4096))
      ~sample:200
  in
  let d16k =
    Overlay.Probe.degrees (Prng.Rng.split rng) (Overlay.Debruijn.make (mk_ring 16384))
      ~sample:200
  in
  (* Expected O(1): mean should not grow materially with n. *)
  Alcotest.(check bool)
    (Printf.sprintf "degree flat: %.1f vs %.1f" d4k.mean d16k.mean)
    true
    (d16k.mean < d4k.mean +. 2.)

let test_neighbors_exclude_self () =
  (* On the two-ID ring, a halving image of one arc holds both IDs. *)
  List.iter
    (fun ring ->
      List.iter
        (fun ov ->
          Ring.iter
            (fun w ->
              Alcotest.(check bool) "no self loop" false
                (List.exists (Point.equal w) (ov.Overlay.Overlay_intf.neighbors w)))
            ring)
        [ Overlay.Chord.make ring; Overlay.Debruijn.make ring ])
    [ mk_ring 128; Ring.of_list [ Point.of_float 0.2; Point.of_float 0.3 ] ]

let test_load_balance_bounded () =
  let ov = Overlay.Chord.make (mk_ring 8192) in
  let lb = Overlay.Probe.load_balance ov in
  (* Max arc is ~ln n/n w.h.p.: the (1 + delta'') of P2 at this scale. *)
  Alcotest.(check bool) (Printf.sprintf "load %.2f < 3 ln n" lb) true
    (lb < 3. *. log 8192.)

let test_congestion_bounded () =
  let ov = Overlay.Chord.make (mk_ring 2048) in
  let c = Overlay.Probe.congestion (Prng.Rng.split rng) ov ~searches:3000 in
  (* P4: congestion O(log^c n / n); the probe normalises by ln n / n,
     so the statistic should be a modest constant. *)
  Alcotest.(check bool) (Printf.sprintf "congestion stat %.2f bounded" c) true (c < 40.)

let test_is_neighbor_and_path_ok_reject () =
  let ring = mk_ring 64 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let a = members.(0) and far = members.(32) in
  (* A fabricated path that jumps to an unlinked node must fail
     validation. *)
  let key = Point.random rng in
  let resp = Ring.successor_exn ring key in
  if not (Overlay.Overlay_intf.is_neighbor ov far a) then
    Alcotest.(check bool) "forged path rejected" false
      (Overlay.Overlay_intf.path_ok ov [ a; far; resp ] key)
  else ()

let test_empty_ring_rejected () =
  Alcotest.check_raises "chord" (Invalid_argument "Chord.make: empty ring") (fun () ->
      ignore (Overlay.Chord.make Ring.empty));
  Alcotest.check_raises "debruijn" (Invalid_argument "Debruijn.make: empty ring") (fun () ->
      ignore (Overlay.Debruijn.make Ring.empty))

let prop_all_hops_are_links =
  QCheck.Test.make ~name:"every chord hop follows a link" ~count:50
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (seed, keyf) ->
      let r = Prng.Rng.create (seed + 100) in
      let ring = Ring.populate r 128 in
      let ov = Overlay.Chord.make ring in
      let members = Ring.to_sorted_array ring in
      let src = members.(Prng.Rng.int r (Array.length members)) in
      let key = Point.of_float keyf in
      Overlay.Overlay_intf.path_ok ov (ov.Overlay.Overlay_intf.route ~src ~key) key)

let prop_debruijn_all_hops_are_links =
  QCheck.Test.make ~name:"every debruijn hop follows a link" ~count:50
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (seed, keyf) ->
      let r = Prng.Rng.create (seed + 200) in
      let ring = Ring.populate r 128 in
      let ov = Overlay.Debruijn.make ring in
      let members = Ring.to_sorted_array ring in
      let src = members.(Prng.Rng.int r (Array.length members)) in
      let key = Point.of_float keyf in
      Overlay.Overlay_intf.path_ok ov (ov.Overlay.Overlay_intf.route ~src ~key) key)

(* -- finger kernel ---------------------------------------------------- *)

(* The one-search-per-stride Chord linking rule the kernel replaced,
   verbatim: 62 independent successor searches, then the predecessor. *)
module Ref_chord = struct
  let fingers ring w =
    let acc = ref [] in
    for j = 61 downto 0 do
      let target = Point.add_cw w (Int64.shift_left 1L j) in
      let f = Ring.successor_exn ring target in
      if not (Point.equal f w) then
        match !acc with
        | prev :: _ when Point.equal prev f -> ()
        | _ -> acc := f :: !acc
    done;
    List.sort_uniq Point.compare !acc

  let neighbors_of ring w =
    let base = fingers ring w in
    let with_pred =
      match Ring.predecessor ring w with
      | Some p when not (Point.equal p w) -> p :: base
      | _ -> base
    in
    List.sort_uniq Point.compare with_pred
end

let top_point = Point.of_u62 (Int64.sub Point.modulus 1L)

(* Rings of 1-3 IDs, random rings, and rings with a run of IDs a few
   keys apart (gaps below 2^j for small j), some hugging the wrap
   point. *)
let finger_ring_gen =
  QCheck.Gen.(
    let point = map (fun i -> Point.of_u62 (Int64.of_int (i land max_int))) int in
    let* size = oneof [ int_range 1 3; int_range 4 64 ] in
    let* spread = list_repeat size point in
    let* anchor = oneof [ point; return Point.zero; return top_point ] in
    let* offsets = list_size (int_bound 10) (int_range 1 64) in
    let run = List.map (fun d -> Point.add_cw anchor (Int64.of_int d)) offsets in
    let* with_run = bool in
    return (if with_run then anchor :: (run @ spread) else spread))

let finger_ring_arb =
  QCheck.make finger_ring_gen ~print:(fun ps ->
      String.concat ";" (List.map (fun p -> Int64.to_string (Point.to_u62 p)) ps))

let prop_finger_kernel =
  QCheck.Test.make ~name:"chord finger kernel = 62-search reference" ~count:400
    finger_ring_arb (fun ps ->
      let ring = Ring.of_list ps in
      let probes =
        List.concat_map
          (fun p -> [ p; Point.add_cw p 1L; Point.add_cw p (Int64.sub Point.modulus 1L) ])
          (Point.zero :: top_point :: Point.of_float 0.5 :: ps)
      in
      List.for_all
        (fun w ->
          Overlay.Chord.fingers ring w = Ref_chord.fingers ring w
          && Overlay.Chord.neighbors_of ring w = Ref_chord.neighbors_of ring w)
        probes)

(* Every construction's memo-free rule over a staged view answers like
   a fresh view of the merged ring: the contract batched joins rely
   on. *)
let prop_staged_rule =
  QCheck.Test.make ~name:"neighbors_in over a staged ring = rebuilt view" ~count:100
    QCheck.(pair finger_ring_arb finger_ring_arb)
    (fun (base, staged) ->
      let view =
        List.fold_left (fun v p -> Ring.View.add p v) (Ring.View.of_ring (Ring.of_list base))
          staged
      in
      let merged = Ring.View.to_ring view in
      List.for_all
        (fun make ->
          let ov = make merged in
          List.for_all
            (fun w ->
              ov.Overlay.Overlay_intf.neighbors_in view w = ov.Overlay.Overlay_intf.neighbors w)
            (Point.of_float 0.25 :: (base @ staged)))
        [ Overlay.Chord.make; Overlay.Debruijn.make ])

(* Chord++. *)

let test_chordpp_paths_validate () =
  let ring = mk_ring 512 in
  let ov = Overlay.Chord_pp.make ring in
  let members = Ring.to_sorted_array ring in
  for _ = 1 to 200 do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let path = ov.Overlay.Overlay_intf.route ~src ~key in
    Alcotest.(check bool) "path validates" true
      (Overlay.Overlay_intf.path_ok ov path key)
  done

let test_chordpp_deterministic_per_salt () =
  let ring = mk_ring 256 in
  let ov1 = Overlay.Chord_pp.make ~salt:1 ring in
  let ov1' = Overlay.Chord_pp.make ~salt:1 ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(0) and key = Point.of_float 0.777 in
  Alcotest.(check bool) "same salt, same path" true
    (ov1.Overlay.Overlay_intf.route ~src ~key = ov1'.Overlay.Overlay_intf.route ~src ~key)

let test_chordpp_salts_diverge () =
  let ring = mk_ring 1024 in
  let members = Ring.to_sorted_array ring in
  let ovs = Array.init 2 (fun salt -> Overlay.Chord_pp.make ~salt ring) in
  let diverged = ref 0 and total = ref 0 in
  for _ = 1 to 100 do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let p0 = ovs.(0).Overlay.Overlay_intf.route ~src ~key in
    let p1 = ovs.(1).Overlay.Overlay_intf.route ~src ~key in
    if List.length p0 > 3 then begin
      incr total;
      if p0 <> p1 then incr diverged
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "salted paths diverge (%d/%d)" !diverged !total)
    true
    (!diverged * 2 > !total)

let test_chordpp_same_linking_rule () =
  let ring = mk_ring 256 in
  let chord = Overlay.Chord.make ring in
  let pp = Overlay.Chord_pp.make ring in
  Ring.iter
    (fun w ->
      Alcotest.(check bool) "identical neighbour sets" true
        (chord.Overlay.Overlay_intf.neighbors w = pp.Overlay.Overlay_intf.neighbors w))
    ring

let test_chordpp_hop_bound () =
  let ring = mk_ring 4096 in
  let ov = Overlay.Chord_pp.make ring in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:300 in
  Alcotest.(check bool)
    (Printf.sprintf "max %d within bound" st.Overlay.Probe.max_hops)
    true
    (st.Overlay.Probe.max_hops <= 40)

(* -- chord++ draw parity ------------------------------------------- *)

(* Frozen reference of the native-int SplitMix finalizer the salted
   chord++ coin draws run on. Golden digests depend on the exact
   output sequence, so the constants (62-bit truncations of the
   SplitMix64 multipliers, kept odd) and shifts are restated here
   verbatim: a well-meaning "upgrade" of the production mixer must
   fail this test, not silently re-roll every coin. *)
let ref_mix_int z =
  let mask62 = (1 lsl 62) - 1 in
  let z = z land mask62 in
  let z = (z lxor (z lsr 31)) * 0x2F58476D1CE4E5B9 land mask62 in
  let z = (z lxor (z lsr 29)) * 0x14D049BB133111EB land mask62 in
  z lxor (z lsr 32)

let test_mix_int_frozen_values () =
  (* Pinned outputs: these fail if reference and production drift in
     tandem. (0 is the finalizer's fixed point; -1 masks to 2^62-1.) *)
  List.iter
    (fun (z, want) ->
      Alcotest.(check int) (Printf.sprintf "mix_int %d" z) want (Prng.Splitmix.mix_int z))
    [
      (0, 0x0);
      (1, 0x1bda8eef98a1e434);
      (2, 0x32e78b7028c06cd1);
      (42, 0x14be4cc3c17dc526);
      (2654435761, 0x3576245845410e4c);
      (0x3FFFFFFFFFFFFFFF, 0x1aa0115cd7159a1);
      (-1, 0x1aa0115cd7159a1);
      (123456789123456789, 0x3e860e03e0668d31);
    ]

(* Reference walk of the chord++ route: same greedy/eligible logic
   against the overlay's own neighbour lists, coins drawn from
   [ref_mix_int]. Any change to the production draw sequence (seed
   derivation, per-hop stride, mixer rounds) diverges here. *)
let ref_route_pp ring neighbors ~salt ~src ~key =
  let resp = Ring.successor_exn ring key in
  if Point.equal src resp then [ src ]
  else begin
    let seed =
      ref_mix_int (salt lxor Point.to_key src lxor ref_mix_int (Point.to_key key))
    in
    let kkey = Point.to_key key in
    let rec go current acc hops =
      let scur =
        match Ring.strict_successor ring current with Some s -> s | None -> assert false
      in
      let kcur = Point.to_key current in
      let arc = (Point.to_key scur - kcur) land Point.key_mask in
      let dist_key = (kkey - kcur) land Point.key_mask in
      if arc = 0 || (dist_key > 0 && dist_key <= arc) then List.rev (scur :: acc)
      else begin
        let candidates =
          List.filter_map
            (fun u ->
              let d = (Point.to_key u - kcur) land Point.key_mask in
              if d > 0 && d < dist_key then Some (u, d) else None)
            (neighbors current)
        in
        let next =
          match candidates with
          | [] -> scur
          | _ ->
              let greedy =
                List.fold_left (fun acc (_, d) -> if d > acc then d else acc) 0 candidates
              in
              let eligible =
                List.filter (fun (_, d) -> d >= (greedy + 1) / 2) candidates
              in
              let eligible =
                List.sort (fun (a, _) (b, _) -> Point.compare a b) eligible
              in
              let k = List.length eligible in
              let idx = ref_mix_int (seed + (hops * 2654435761)) mod k in
              fst (List.nth eligible idx)
        in
        go next (next :: acc) (hops + 1)
      end
    in
    go src [ src ] 0
  end

let test_chord_pp_draw_parity () =
  let ring = mk_ring 512 in
  let members = Ring.to_sorted_array ring in
  List.iter
    (fun salt ->
      let ov = Overlay.Chord_pp.make ~salt ring in
      for _ = 1 to 100 do
        let src = members.(Prng.Rng.int rng (Array.length members)) in
        let key = Point.random rng in
        let got = ov.Overlay.Overlay_intf.route ~src ~key in
        let want =
          ref_route_pp ring ov.Overlay.Overlay_intf.neighbors ~salt ~src ~key
        in
        Alcotest.(check bool) "path equals frozen-reference walk" true (got = want)
      done)
    [ 0; 1; 7 ]

let () =
  Alcotest.run "overlay"
    [
      ( "routing",
        [
          Alcotest.test_case "chord paths validate" `Quick test_chord_paths;
          Alcotest.test_case "debruijn paths validate" `Quick test_debruijn_paths;
          Alcotest.test_case "routes end at responsible ID" `Quick test_route_ends_at_responsible;
          Alcotest.test_case "routes start at source" `Quick test_route_starts_at_src;
          Alcotest.test_case "self route" `Quick test_self_route;
        ] );
      ( "P1-P4",
        [
          Alcotest.test_case "chord O(log n) hops" `Quick test_chord_log_hops;
          Alcotest.test_case "debruijn hop bound" `Quick test_debruijn_hop_bound;
          Alcotest.test_case "chord degree ~ lg n" `Quick test_chord_degree_logarithmic;
          Alcotest.test_case "debruijn O(1) degree" `Slow test_debruijn_constant_degree;
          Alcotest.test_case "load balance (P2)" `Slow test_load_balance_bounded;
          Alcotest.test_case "congestion (P4)" `Slow test_congestion_bounded;
        ] );
      ( "linking-rules",
        [
          Alcotest.test_case "fingers verifiable (P3)" `Quick test_chord_fingers_are_successors;
          Alcotest.test_case "no self loops" `Quick test_neighbors_exclude_self;
          Alcotest.test_case "forged paths rejected" `Quick test_is_neighbor_and_path_ok_reject;
          Alcotest.test_case "empty ring rejected" `Quick test_empty_ring_rejected;
        ] );
      ( "chord++",
        [
          Alcotest.test_case "paths validate" `Quick test_chordpp_paths_validate;
          Alcotest.test_case "deterministic per salt" `Quick test_chordpp_deterministic_per_salt;
          Alcotest.test_case "salts diverge" `Quick test_chordpp_salts_diverge;
          Alcotest.test_case "same linking rule" `Quick test_chordpp_same_linking_rule;
          Alcotest.test_case "hop bound" `Quick test_chordpp_hop_bound;
        ] );
      ( "chord++-coins",
        [
          Alcotest.test_case "mix_int frozen values" `Quick test_mix_int_frozen_values;
          Alcotest.test_case "route = frozen-reference draws" `Quick
            test_chord_pp_draw_parity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_all_hops_are_links;
            prop_debruijn_all_hops_are_links;
            prop_finger_kernel;
            prop_staged_rule;
          ] );
    ]
