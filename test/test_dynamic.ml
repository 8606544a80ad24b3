(* Per-event joins/departures (Dynamic) and timed routing. The
   latency models live in test_latency.ml. *)

open Idspace

let rng = Prng.Rng.create 3030
let h2 = Hashing.Oracle.make ~system_key:"dyn-test" ~label:"h2"
let metrics = Sim.Metrics.create ()

let setup ?(n = 256) ?(beta = 0.05) () =
  let _, g1 = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  let _, g2 = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  (g1, Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2))

let test_join_adds_id () =
  let g, old_pair = setup () in
  let id = Point.of_float 0.123456789 in
  let g', cost =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
      ~member_oracle:h2 ~ids:[ (id, false) ]
  in
  Alcotest.(check int) "one more group" (Tinygroups.Group_graph.n_groups g + 1)
    (Tinygroups.Group_graph.n_groups g');
  Alcotest.(check bool) "id is a leader now" true
    (Idspace.Ring.mem id
       (Adversary.Population.ring (Tinygroups.Group_graph.population g')));
  Alcotest.(check bool) "join did searches" true (cost.Tinygroups.Dynamic.searches > 0);
  Alcotest.(check bool) "join cost messages" true (cost.Tinygroups.Dynamic.messages > 0);
  (* The newcomer's group exists and has members from the old
     population. *)
  let grp = Tinygroups.Group_graph.group_of g' id in
  Alcotest.(check bool) "group formed" true (Tinygroups.Group.size grp >= 1)

let test_join_rejects_duplicate () =
  let g, old_pair = setup () in
  let existing = (Tinygroups.Group_graph.leaders g).(0) in
  Alcotest.check_raises "duplicate join"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
           ~member_oracle:h2 ~ids:[ (existing, false) ]))

let test_join_captured_groups_link_back () =
  let g, old_pair = setup () in
  let id = Point.of_float 0.42424242 in
  let captured = Tinygroups.Dynamic.captured_by g ~id in
  Alcotest.(check bool) "someone captures the newcomer" true (List.length captured > 0);
  let g', cost =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
      ~member_oracle:h2 ~ids:[ (id, false) ]
  in
  Alcotest.(check int) "cost reports them" (List.length captured)
    cost.Tinygroups.Dynamic.affected_groups;
  (* After the join, each captured leader's neighbour set indeed
     contains the newcomer. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "links to newcomer" true
        (List.exists (Point.equal id)
           ((Tinygroups.Group_graph.overlay g').Overlay.Overlay_intf.neighbors v)))
    captured

let test_depart_removes_and_updates_members () =
  let g, _ = setup ~beta:0.0 () in
  let victim = (Tinygroups.Group_graph.leaders g).(7) in
  (* Count the groups the victim serves in beforehand, its own group
     left out: a departure excises that group whole rather than
     dropping a member from it. *)
  let serving =
    Tinygroups.Group_graph.fold_groups
      (fun w grp acc ->
        if (not (Point.equal w victim)) && Tinygroups.Group.contains grp victim then
          acc + 1
        else acc)
      g 0
  in
  let g', cost = Tinygroups.Dynamic.depart_many g ~ids:[ victim ] in
  Alcotest.(check int) "one fewer group" (Tinygroups.Group_graph.n_groups g - 1)
    (Tinygroups.Group_graph.n_groups g');
  Alcotest.(check int) "membership updates counted" serving
    cost.Tinygroups.Dynamic.member_updates;
  (* No remaining group contains the departed ID (unless it was the
     group's sole member, which cannot happen for formed groups of
     size >= 3). *)
  Tinygroups.Group_graph.iter_groups
    (fun _ grp ->
      if Tinygroups.Group.size grp >= 2 then
        Alcotest.(check bool) "member excised" false (Tinygroups.Group.contains grp victim))
    g'

(* Deep graph equality: same leaders in the same ring iteration
   order, identical member sets and health per group, identical
   confused sets and census. *)
let graphs_equal g1 g2 =
  let collect g =
    Tinygroups.Group_graph.fold_groups
      (fun w grp acc ->
        (w, grp.Tinygroups.Group.members, grp.Tinygroups.Group.health) :: acc)
      g []
  in
  Tinygroups.Group_graph.leaders g1 = Tinygroups.Group_graph.leaders g2
  && collect g1 = collect g2
  && Tinygroups.Group_graph.confused_leaders g1
     = Tinygroups.Group_graph.confused_leaders g2
  && Tinygroups.Group_graph.census g1 = Tinygroups.Group_graph.census g2

let test_depart_many_equals_sequential () =
  (* Churn batching: the merged-ring batch departure must produce the
     same graph as the fold of one-element batches (the golden digests
     for e18/e25 cover the integrated path; this pins the batch form
     at the unit level). *)
  let g, _ = setup ~n:128 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let ids = [ leaders.(3); leaders.(40); leaders.(77); leaders.(11); leaders.(126) ] in
  let batched, bcost = Tinygroups.Dynamic.depart_many g ~ids in
  let sequential, supd =
    List.fold_left
      (fun (h, upd) id ->
        let h', c = Tinygroups.Dynamic.depart_many h ~ids:[ id ] in
        (h', upd + c.Tinygroups.Dynamic.member_updates))
      (g, 0) ids
  in
  Alcotest.(check bool) "same graph as the one-at-a-time fold" true
    (graphs_equal batched sequential);
  Alcotest.(check int) "same membership-update count"
    supd bcost.Tinygroups.Dynamic.member_updates;
  Alcotest.check_raises "absent ID rejected"
    (Invalid_argument "Dynamic.depart_many: unknown ID") (fun () ->
      ignore (Tinygroups.Dynamic.depart_many g ~ids:[ Point.of_float 0.5757575 ]));
  Alcotest.check_raises "duplicate ID rejected"
    (Invalid_argument "Dynamic.depart_many: unknown ID") (fun () ->
      ignore (Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(3); leaders.(3) ]))

(* One world per overlay construction: a graph built over it and the
   old pair its newcomers solicit through. Chord++ carries a non-zero
   salt so a rebuild that forgets it shows up in the routes. Worlds draw
   from their own stream, so [rng]'s draws for the other tests stay as
   they were. *)
let world_rng = Prng.Rng.create 4040

let setup_with make ~n =
  let params = { Tinygroups.Params.default with Tinygroups.Params.beta = 0.05 } in
  let build () =
    let pop =
      Adversary.Population.generate (Prng.Rng.split world_rng) ~n ~beta:0.05
        ~strategy:Adversary.Placement.Uniform
    in
    Tinygroups.Group_graph.build_direct ~params ~population:pop
      ~overlay:(make (Adversary.Population.ring pop))
      ~member_oracle:Experiments.Common.h1 ()
  in
  let g1 = build () in
  let g2 = build () in
  (g1, Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2))

let worlds =
  lazy
    (List.map
       (fun make -> setup_with make ~n:96)
       [
         Overlay.Chord.make;
         Overlay.Chord_pp.make ~salt:5;
         Overlay.Debruijn.make;
       ])

let top_key = Int64.sub Point.modulus 1L

(* A batch of [k] distinct newcomers absent from [g]: a third packed
   into the gap after one leader, a third within 2^20 keys of the wrap
   point (either side), the rest uniform; one in four is bad. *)
let batch_of g ~seed ~k =
  let r = Prng.Rng.create seed in
  let ring = Adversary.Population.ring (Tinygroups.Group_graph.population g) in
  let leaders = Tinygroups.Group_graph.leaders g in
  let w = leaders.(Prng.Rng.int r (Array.length leaders)) in
  let gap = Point.distance_cw w (Ring.strict_successor_exn ring w) in
  let draw () =
    match Prng.Rng.int r 3 with
    | 0 when gap > 1L ->
        let u = Int64.shift_right_logical (Prng.Rng.bits64 r) 2 in
        Point.add_cw w (Int64.add 1L (Int64.rem u (Int64.pred gap)))
    | 1 ->
        let d = Int64.of_int (Prng.Rng.int r (1 lsl 20)) in
        Point.of_u62 (if Prng.Rng.bool r then d else Int64.sub top_key d)
    | _ -> Point.random r
  in
  let rec fill acc seen j =
    if j = k then List.rev acc
    else
      let p = draw () in
      if Ring.mem p ring || List.exists (Point.equal p) seen then fill acc seen j
      else fill ((p, Prng.Rng.int r 4 = 0) :: acc) (p :: seen) (j + 1)
  in
  fill [] [] 0

(* The batched admission must replay the per-ID protocol (PRNG split
   order included) exactly as the fold of one-element batches, for
   every construction: same graph, same bad ring, same aggregate cost,
   and one overlay rebuild for the batch against one per join for the
   fold. *)
let prop_join_many_equals_sequential =
  QCheck.Test.make ~name:"batch = one-at-a-time" ~count:40
    QCheck.(pair small_nat (int_range 1 24))
    (fun (seed, k) ->
      List.for_all
        (fun (g, old_pair) ->
          let ids = batch_of g ~seed ~k in
          let rng_b = Prng.Rng.create seed and rng_s = Prng.Rng.create seed in
          let m_b = Sim.Metrics.create () and m_s = Sim.Metrics.create () in
          let batched, bcost =
            Tinygroups.Dynamic.join_many rng_b m_b g ~old_pair ~member_oracle:h2 ~ids
          in
          let sequential, s_searches, s_msgs, s_affected, s_upd =
            List.fold_left
              (fun (h, srch, msgs, aff, upd) (id, bad) ->
                let h', c =
                  Tinygroups.Dynamic.join_many rng_s m_s h ~old_pair ~member_oracle:h2
                    ~ids:[ (id, bad) ]
                in
                ( h',
                  srch + c.Tinygroups.Dynamic.searches,
                  msgs + c.Tinygroups.Dynamic.messages,
                  aff + c.Tinygroups.Dynamic.affected_groups,
                  upd + c.Tinygroups.Dynamic.member_updates ))
              (g, 0, 0, 0, 0) ids
          in
          graphs_equal batched sequential
          && Adversary.Population.bad_ids (Tinygroups.Group_graph.population batched)
             = Adversary.Population.bad_ids (Tinygroups.Group_graph.population sequential)
          && bcost.Tinygroups.Dynamic.searches = s_searches
          && bcost.Tinygroups.Dynamic.messages = s_msgs
          && bcost.Tinygroups.Dynamic.affected_groups = s_affected
          && bcost.Tinygroups.Dynamic.member_updates = s_upd
          && Sim.Metrics.get m_b Sim.Metrics.overlay_rebuilds = 1
          && Sim.Metrics.get m_s Sim.Metrics.overlay_rebuilds = k)
        (Lazy.force worlds))

(* The batched departure must leave the same graph and bad ring as
   the fold of one-element batches, for every construction, over
   random batches of leaders in random order: a group's leader often
   departs before or after some of its members, batches reach n - 1
   so whole groups depart (the drop that would empty a group is
   skipped, which makes the drop order observable), and a random
   third of the leaders is marked confused first. The costs are left
   out: [affected_groups] is counted against the starting overlay by
   design, and [member_updates] skips drops from a group whose leader
   departs in the same batch (a known undercount). *)
let prop_depart_many_equals_sequential =
  QCheck.Test.make ~name:"random batches = one-at-a-time" ~count:40
    QCheck.(pair small_nat (int_range 1 95))
    (fun (seed, k) ->
      List.for_all
        (fun (g, _) ->
          let r = Prng.Rng.create seed in
          let open Tinygroups.Group_graph in
          let leaders = Array.copy (leaders g) in
          let g =
            assemble ~params:(params g) ~population:(population g) ~overlay:(overlay g)
              ~groups:(Array.to_list (Array.map (fun w -> (w, group_of g w)) leaders))
              ~confused:(List.filter (fun _ -> Prng.Rng.int r 3 = 0) (Array.to_list leaders))
              ()
          in
          Prng.Rng.shuffle r leaders;
          let k = min k (Array.length leaders - 1) in
          let ids = Array.to_list (Array.sub leaders 0 k) in
          let batched, _ = Tinygroups.Dynamic.depart_many g ~ids in
          let sequential =
            List.fold_left
              (fun h id -> fst (Tinygroups.Dynamic.depart_many h ~ids:[ id ]))
              g ids
          in
          graphs_equal batched sequential
          && Adversary.Population.bad_ids (population batched)
             = Adversary.Population.bad_ids (population sequential))
        (Lazy.force worlds))

let test_join_many_rejects_present () =
  let g, old_pair = setup ~n:128 ~beta:0.05 () in
  let present = (Tinygroups.Group_graph.leaders g).(0) in
  Alcotest.check_raises "present ID rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
           ~member_oracle:h2 ~ids:[ (present, false) ]));
  Alcotest.check_raises "duplicate ID rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
           ~member_oracle:h2
           ~ids:[ (Point.of_float 0.55, false); (Point.of_float 0.55, true) ]))

(* A rejected batch pays no entrance fee: validation runs before the
   controller is charged, so its ledgers and the [pow.*] counters stay
   where they were. *)
let test_rejected_join_charges_no_pow () =
  (* A private stream: the shared [rng] feeds the worlds of later
     cases. *)
  let rng = Prng.Rng.create 4040 in
  let _, g = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n:128 ~beta:0.05 () in
  let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g None in
  let present = (Tinygroups.Group_graph.leaders g).(0) in
  let pow = Pow.Controller.create (Pow.Controller.fixed ~epoch_steps:4096) ~n:128 in
  let m = Sim.Metrics.create () in
  (* One admitted newcomer first, so the ledgers start non-zero. *)
  let g, _ =
    Tinygroups.Dynamic.join_many ~pow (Prng.Rng.split rng) m g ~old_pair ~member_oracle:h2
      ~ids:[ (Point.of_float 0.321, true) ]
  in
  let good = Pow.Controller.cumulative_good_spend pow in
  let bad = Pow.Controller.cumulative_bad_spend pow in
  let before = Sim.Metrics.to_list (Sim.Metrics.snapshot m) in
  Alcotest.check_raises "present ID rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many ~pow (Prng.Rng.split rng) m g ~old_pair
           ~member_oracle:h2
           ~ids:[ (Point.of_float 0.55, false); (present, true) ]));
  Alcotest.check_raises "single join rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many ~pow (Prng.Rng.split rng) m g ~old_pair
           ~member_oracle:h2 ~ids:[ (present, true) ]));
  Alcotest.(check bool) "admitted newcomer paid" true (bad > 0);
  Alcotest.(check int) "good spend" good (Pow.Controller.cumulative_good_spend pow);
  Alcotest.(check int) "bad spend" bad (Pow.Controller.cumulative_bad_spend pow);
  Alcotest.(check (list (pair string int))) "metrics unchanged" before
    (Sim.Metrics.to_list (Sim.Metrics.snapshot m))

(* Churn rebuilds the overlay with the construction's own parameters:
   a salted Chord++ graph keeps routing on its salt's paths after
   batched and single departures and joins. *)
let test_salted_chord_pp_survives_churn () =
  let salt = 3 in
  let g, old_pair = setup_with (Overlay.Chord_pp.make ~salt) ~n:256 in
  let leaders = Tinygroups.Group_graph.leaders g in
  let g, _ =
    Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(5); leaders.(60); leaders.(200) ]
  in
  let g, _ =
    Tinygroups.Dynamic.join_many (Prng.Rng.create 11) (Sim.Metrics.create ()) g ~old_pair
      ~member_oracle:h2 ~ids:(batch_of g ~seed:11 ~k:6)
  in
  let g, _ = Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(100) ] in
  let g, _ =
    Tinygroups.Dynamic.join_many (Prng.Rng.create 12) (Sim.Metrics.create ()) g ~old_pair
      ~member_oracle:h2 ~ids:[ (Point.of_float 0.7071, false) ]
  in
  let ring = Adversary.Population.ring (Tinygroups.Group_graph.population g) in
  let ov = Tinygroups.Group_graph.overlay g in
  let want = Overlay.Chord_pp.make ~salt ring and unsalted = Overlay.Chord_pp.make ring in
  let members = Ring.to_sorted_array ring in
  let r = Prng.Rng.create 13 in
  let differs = ref 0 in
  for _ = 1 to 300 do
    let src = members.(Prng.Rng.int r (Array.length members)) in
    let key = Point.random r in
    let got = ov.Overlay.Overlay_intf.route ~src ~key in
    Alcotest.(check bool) "routes like Chord_pp.make ~salt over the new ring" true
      (got = want.Overlay.Overlay_intf.route ~src ~key);
    if got <> unsalted.Overlay.Overlay_intf.route ~src ~key then incr differs
  done;
  Alcotest.(check bool) "salt 0 would route differently" true (!differs > 0)

let test_depart_unknown_rejected () =
  let g, _ = setup () in
  Alcotest.check_raises "unknown" (Invalid_argument "Dynamic.depart_many: unknown ID")
    (fun () ->
      ignore (Tinygroups.Dynamic.depart_many g ~ids:[ Point.of_float 0.987654321 ]))

let test_join_then_search_works () =
  let g, old_pair = setup ~beta:0.0 () in
  let id = Point.of_float 0.31415 in
  let g', _ =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
      ~member_oracle:h2 ~ids:[ (id, false) ]
  in
  (* Searches from and towards the newcomer succeed. *)
  let o =
    Tinygroups.Secure_route.search g' ~failure:`Majority ~src:id ~key:(Point.random rng)
  in
  Alcotest.(check bool) "newcomer can search" true (Tinygroups.Secure_route.succeeded o);
  let other = (Tinygroups.Group_graph.leaders g').(3) in
  let towards =
    Tinygroups.Secure_route.search g' ~failure:`Majority ~src:other
      ~key:(Point.add_cw id (Int64.neg 1L))
  in
  Alcotest.(check bool) "newcomer reachable" true (Tinygroups.Secure_route.succeeded towards)

let test_churn_sequence_stays_healthy () =
  let g, old_pair = setup ~n:256 ~beta:0.05 () in
  let live = ref g in
  for i = 0 to 14 do
    let id = Point.of_float (0.001 +. (0.066 *. float_of_int i)) in
    if not (Idspace.Ring.mem id (Adversary.Population.ring (Tinygroups.Group_graph.population !live))) then begin
      let g', _ =
        Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics !live ~old_pair
          ~member_oracle:h2 ~ids:[ (id, i mod 5 = 0) ]
      in
      live := g'
    end;
    let leaders = Tinygroups.Group_graph.leaders !live in
    let victim = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let g'', _ = Tinygroups.Dynamic.depart_many !live ~ids:[ victim ] in
    live := g''
  done;
  let c = Tinygroups.Group_graph.census !live in
  Alcotest.(check bool) "size steady" true (abs (c.total - 256) <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "healthy after churn (hij %d conf %d)" c.hijacked_ c.confused_)
    true
    (c.hijacked_ + c.confused_ < 26)

(* Timed routing. *)

let test_quorum_wait_grows_with_processing () =
  let l = Sim.Latency.constant 10 in
  let fast =
    Tinygroups.Timed_route.quorum_wait rng l ~per_message_ms:0 ~senders:11 ~receivers:11 ()
  in
  let slow =
    Tinygroups.Timed_route.quorum_wait rng l ~per_message_ms:10 ~senders:11 ~receivers:11 ()
  in
  Alcotest.(check int) "pure RTT: the constant" 10 fast;
  (* Serial processing of the 6-message quorum at 10ms each. *)
  Alcotest.(check int) "processing adds 6 x 10" 70 slow

let test_timed_search_consistency () =
  let g, _ = setup ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let l = Sim.Latency.constant 10 in
  for _ = 1 to 30 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let t =
      Tinygroups.Timed_route.search (Prng.Rng.split rng) g ~latency:l ~per_message_ms:0
        ~failure:`Majority ~src ~key
    in
    Alcotest.(check bool) "succeeds" true t.Tinygroups.Timed_route.succeeded;
    (* With constant latency and no processing, elapsed = 10ms per
       edge. *)
    Alcotest.(check int) "10ms per hop"
      (10 * List.length t.Tinygroups.Timed_route.per_hop_ms)
      t.Tinygroups.Timed_route.elapsed_ms
  done

let () =
  Alcotest.run "dynamic"
    [
      ( "join",
        [
          Alcotest.test_case "adds the ID" `Quick test_join_adds_id;
          Alcotest.test_case "rejects duplicates" `Quick test_join_rejects_duplicate;
          Alcotest.test_case "captured groups link back" `Quick
            test_join_captured_groups_link_back;
          Alcotest.test_case "newcomer searchable" `Quick test_join_then_search_works;
          QCheck_alcotest.to_alcotest prop_join_many_equals_sequential;
          Alcotest.test_case "batch rejects present IDs" `Quick
            test_join_many_rejects_present;
          Alcotest.test_case "rejected join charges no PoW" `Quick
            test_rejected_join_charges_no_pow;
          Alcotest.test_case "salted chord++ keeps its salt" `Quick
            test_salted_chord_pp_survives_churn;
        ] );
      ( "depart",
        [
          Alcotest.test_case "removes and updates" `Quick test_depart_removes_and_updates_members;
          Alcotest.test_case "unknown rejected" `Quick test_depart_unknown_rejected;
          Alcotest.test_case "batch = one-at-a-time" `Quick
            test_depart_many_equals_sequential;
          QCheck_alcotest.to_alcotest prop_depart_many_equals_sequential;
          Alcotest.test_case "churn sequence" `Slow test_churn_sequence_stays_healthy;
        ] );
      ( "timed-route",
        [
          Alcotest.test_case "quorum wait vs processing" `Quick
            test_quorum_wait_grows_with_processing;
          Alcotest.test_case "timed search consistency" `Quick test_timed_search_consistency;
        ] );
    ]
