let run_e18 ?(jobs = 1) rng scale =
  let table =
    Table.create
      ~title:
        "E18 (footnote 13): per-event cost of individual joins and departures"
      ~columns:
        [
          "n";
          "events";
          "join searches";
          "join msgs";
          "join affected";
          "depart affected";
          "lg^2 n";
        ]
  in
  let events = match scale with Scale.Quick -> 20 | _ -> 50 in
  let h2 = Hashing.Oracle.make ~system_key:"tinygroups-repro" ~label:"h2" in
  let ns = match scale with Scale.Quick -> [ 512; 1024 ] | _ -> [ 1024; 2048; 4096 ] in
  let rows =
    Common.map_configs rng ~jobs ns (fun n stream ->
        let beta = 0.05 in
        let _, g1 = Common.build_tiny stream ~n ~beta () in
        let _, g2 = Common.build_tiny stream ~n ~beta () in
        let old_pair =
          Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2)
        in
        let metrics = Sim.Metrics.create () in
        let live = ref g1 in
        let js = ref 0 and jm = ref 0 and ja = ref 0 and da = ref 0 in
        for _ = 1 to events do
          (* One join... *)
          let id = Idspace.Point.random stream in
          let bad = Prng.Rng.bernoulli stream beta in
          let g', cost =
            Tinygroups.Dynamic.join_many (Prng.Rng.split stream) metrics !live ~old_pair
              ~member_oracle:h2 ~ids:[ (id, bad) ]
          in
          live := g';
          js := !js + cost.Tinygroups.Dynamic.searches;
          jm := !jm + cost.Tinygroups.Dynamic.messages;
          ja := !ja + cost.Tinygroups.Dynamic.affected_groups;
          (* ...then one departure keeps the size steady (the paper's
             swap model). *)
          let leaders = Tinygroups.Group_graph.leaders !live in
          let victim = leaders.(Prng.Rng.int stream (Array.length leaders)) in
          let g'', dcost = Tinygroups.Dynamic.depart_many !live ~ids:[ victim ] in
          live := g'';
          da := !da + dcost.Tinygroups.Dynamic.affected_groups
        done;
        let per x = float_of_int x /. float_of_int events in
        let lg = log (float_of_int n) /. log 2. in
        [
          Table.fint n;
          Table.fint events;
          Table.ffloat ~digits:1 (per !js);
          Table.ffloat ~digits:0 (per !jm);
          Table.ffloat ~digits:1 (per !ja);
          Table.ffloat ~digits:1 (per !da);
          Table.ffloat ~digits:0 (lg *. lg);
        ])
  in
  List.iter (Table.add_row table) rows;
  Table.add_note table
    "join searches = 4 x (member draws + |L_w| + captured groups); affected =";
  Table.add_note table
    "groups whose links change. Everything stays polylog while n doubles.";
  table
