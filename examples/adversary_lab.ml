(* Adversary lab — a guided tour of every implemented attack and the
   defence that stops it.

       dune exec examples/adversary_lab.exe

   Five rounds, one per §of the paper:
     1. key capture by placement (PoW's uniformity, §IV-A)
     2. pre-computation stockpiling (rotating strings, §IV-B)
     3. randomness biasing inside a group (share recovery, [8])
     4. state-inflation spam (request verification, Lemma 10)
     5. reply forgery during search (successor rule + PoW checks) *)

open Idspace

let rng = Prng.Rng.create 1337

let banner title = Printf.printf "\n=== %s\n" title

let () =
  Printf.printf "adversary lab: every attack, and why it fails\n";

  (* 1. Placement. *)
  banner "1. key capture by ID placement";
  let arc = Interval.make ~from:(Point.of_float 0.40) ~until:(Point.of_float 0.41) in
  let clustered =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:1024 ~beta:0.05
      ~strategy:(Adversary.Placement.Cluster arc)
  in
  let uniform =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:1024 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform
  in
  let captured pop =
    let ring = Adversary.Population.ring pop in
    let hits = ref 0 in
    for _ = 1 to 500 do
      if Adversary.Population.is_bad pop (Ring.successor_exn ring (Interval.sample rng arc))
      then incr hits
    done;
    float_of_int !hits /. 5.
  in
  Printf.printf
    "  free placement captures %.0f%% of the keys in its target arc;\n\
    \  PoW-enforced uniform placement captures %.0f%% (= beta).\n"
    (captured clustered) (captured uniform);
  Printf.printf "  defence: IDs are f(g(sigma XOR r)) — position is not choosable (E6).\n";

  (* 2. Pre-computation. *)
  banner "2. pre-computation stockpiling";
  let scheme = Pow.Identity.make_scheme ~system_key:"lab" ~epoch_steps:256 in
  let metrics = Sim.Metrics.create () in
  let per_epoch = Pow.Budget.adversary_budget ~beta:0.10 ~n:500 ~epoch_steps:256 in
  let stockpile =
    List.concat
      (List.init 6 (fun i ->
           Pow.Identity.solve_all (Prng.Rng.split rng) scheme
             ~budget:(Pow.Budget.create ~evals:per_epoch)
             ~rand_string:(Int64.of_int i) ~metrics))
  in
  let usable =
    List.filter (fun c -> Pow.Identity.verify scheme c ~known_strings:[ 5L ]) stockpile
  in
  Printf.printf "  6 epochs of hoarding minted %d IDs; usable when attacking: %d.\n"
    (List.length stockpile) (List.length usable);
  Printf.printf "  defence: the global random string rotates every epoch (E7).\n";

  (* 3. Randomness biasing. *)
  banner "3. biasing the group's random beacon";
  let naive =
    Agreement.Commit_reveal.parity_bias (Prng.Rng.split rng) ~trials:2000 ~good:7 ~bad:3
      ~recovery:false
  in
  let defended =
    Agreement.Commit_reveal.parity_bias (Prng.Rng.split rng) ~trials:2000 ~good:7 ~bad:3
      ~recovery:true
  in
  Printf.printf
    "  withholding reveals skews the parity to %.2f even under naive commit-reveal;\n\
    \  with share recovery it sits at %.2f.\n" naive defended;
  Printf.printf "  defence: withheld values are reconstructed from shares ([8]-style).\n";

  (* 4. Spam. *)
  banner "4. state-inflation spam";
  let h1 = Hashing.Oracle.make ~system_key:"lab" ~label:"h1" in
  let h2 = Hashing.Oracle.make ~system_key:"lab" ~label:"h2" in
  let params = { Tinygroups.Params.default with Tinygroups.Params.beta = 0.10 } in
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:512 ~beta:0.10
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let g1 =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h1 ()
  in
  let g2 =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h2 ()
  in
  let pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2) in
  let goods = Adversary.Population.good_ids pop in
  let landed = ref 0 in
  let attempts = 400 in
  for _ = 1 to attempts do
    let victim = goods.(Prng.Rng.int rng (Array.length goods)) in
    if Tinygroups.Membership.spam_accepted (Prng.Rng.split rng) metrics pair ~victim then
      incr landed
  done;
  Printf.printf
    "  %d bogus membership requests fired; %d accepted (unverified: all %d land).\n"
    attempts !landed attempts;
  Printf.printf "  defence: victims re-derive every request by search (Lemma 10, E14).\n";

  (* 5. Reply forgery. *)
  banner "5. reply forgery during secure search";
  let leaders = Tinygroups.Group_graph.leaders g1 in
  let lat = Sim.Latency.constant 10 in
  let hijacked = ref 0 and resolved = ref 0 in
  for _ = 1 to 50 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    match
      (Protocol.Secure_search.run_search (Prng.Rng.split rng) g1 ~latency:lat
         ~behaviour:Protocol.Secure_search.Colluding ~src ~key ())
        .Protocol.Secure_search.result
    with
    | `Resolved _ -> incr resolved
    | `Hijacked _ -> incr hijacked
    | `Timeout -> ()
  done;
  Printf.printf
    "  50 searches against colluding forgers: %d resolved truthfully, %d hijacked.\n"
    !resolved !hijacked;
  Printf.printf
    "  defence: forged claims must name verifiable IDs, and the successor rule\n\
    \  prefers the true owner (E19).\n"
