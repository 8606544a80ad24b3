(* Probe calls into single layers, replayed by the traced run on a
   workload's own world state after its measured windows. A probe
   repeats its call until [min_ns] of work has been timed, so a
   per-call mean reads well above the clock's resolution. Probes draw
   their inputs from their own stream, never from the workload's. *)

open Idspace
module G = Tinygroups.Group_graph

let time f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Span.now_ns () - t0)

let min_ns = 50_000_000

(* Mean ns per call of [f i], calling it with i = 0, 1, ... until
   [min_ns] has elapsed (at least [min_calls] times). *)
let mean_ns ?(min_calls = 1) f =
  let t0 = Span.now_ns () in
  let calls = ref 0 in
  while !calls < min_calls || Span.now_ns () - t0 < min_ns do
    f !calls;
    incr calls
  done;
  float_of_int (Span.now_ns () - t0) /. float_of_int !calls

let sample_leaders rng g count =
  let leaders = G.leaders g in
  Array.init count (fun _ -> Prng.Rng.choose rng leaders)

(* [count] distinct random points absent from [ring]. *)
let fresh_points rng ring count =
  let seen = Hashtbl.create count in
  let rec draw acc k =
    if k = count then List.rev acc
    else
      let p = Point.random rng in
      if Ring.mem p ring || Hashtbl.mem seen p then draw acc k
      else begin
        Hashtbl.replace seen p ();
        draw (p :: acc) (k + 1)
      end
  in
  draw [] 0

(* The O(k n) fold [Dynamic.join_many] replays internally, against the
   merged batch insert; both must give the same ring. *)
let ring_add ring ids =
  let fold, fold_ns = time (fun () -> List.fold_left (fun r p -> Ring.add p r) ring ids) in
  let batch, batch_ns = time (fun () -> Ring.add_batch ids ring) in
  let same =
    Array.for_all2 Point.equal (Ring.to_sorted_array fold) (Ring.to_sorted_array batch)
  in
  (fold_ns, batch_ns, same)

let oracle_query_ns () =
  let sink = ref 0L in
  let ns =
    mean_ns ~min_calls:100_000 (fun i ->
        sink :=
          Int64.logxor !sink
            (Hashing.Oracle.query_indexed Experiments.Common.h1 (Int64.of_int i) (i land 7)))
  in
  ignore (Sys.opaque_identity !sink);
  ns

let form_group_us rng g =
  let b =
    G.Builder.create ~params:(G.params g) ~population:(G.population g)
      ~member_oracle:Experiments.Common.h1
  in
  let ids = sample_leaders rng g 1024 in
  mean_ns ~min_calls:1024 (fun i -> ignore (G.Builder.form_group b ids.(i land 1023)))
  /. 1e3

let neighbors_of_us rng g =
  let ring = (G.overlay g).Overlay.Overlay_intf.ring in
  let ids = sample_leaders rng g 1024 in
  mean_ns ~min_calls:1024 (fun i -> ignore (Overlay.Chord.neighbors_of ring ids.(i land 1023)))
  /. 1e3

(* Secure routing between random leaders; returns (us, msgs) per
   search. The message mean is over the first 1024 searches only, so
   it is a pure function of the world and the probe stream. *)
let route rng g =
  let srcs = sample_leaders rng g 1024 in
  let keys = Array.init 1024 (fun _ -> Point.random rng) in
  let msgs = ref 0 in
  let us =
    mean_ns ~min_calls:1024 (fun i ->
        let o =
          Tinygroups.Secure_route.search g ~failure:`Majority ~src:srcs.(i land 1023)
            ~key:keys.(i land 1023)
        in
        if i < 1024 then msgs := !msgs + o.Tinygroups.Secure_route.messages)
    /. 1e3
  in
  (us, float_of_int !msgs /. 1024.)

let solicit_us rng old_pair =
  let points = Array.init 256 (fun _ -> Point.random rng) in
  let m = Sim.Metrics.create () in
  mean_ns ~min_calls:256 (fun i ->
      ignore (Tinygroups.Membership.solicit_member rng m old_pair ~point:points.(i land 255)))
  /. 1e3

let metrics_add_ns () =
  let m = Sim.Metrics.create () in
  mean_ns ~min_calls:1_000_000 (fun _ -> Sim.Metrics.add m Sim.Metrics.msg_routing 1)

(* The load generator's own cost per op: a run whose [execute] does
   no work. *)
let traffic_overhead_us rng dist =
  let spec =
    {
      Workload.Traffic.users = 64;
      ops_per_user = 2048;
      think_ms = 50.;
      mix = Workload.Traffic.default_mix;
      dist;
    }
  in
  let stats, ns =
    time (fun () ->
        Workload.Traffic.run rng spec ~execute:(fun ~user:_ ~seq:_ ~now:_ ~op:_ ~key:_ _ -> 1))
  in
  float_of_int ns /. 1e3 /. float_of_int stats.Workload.Traffic.ops

(* One [build_direct] over the graph's own population and overlay.
   Words are read only at jobs 1: [Gc.minor_words] counts the calling
   domain alone. *)
let build ~jobs g =
  let words0 = Gc.minor_words () in
  let g', ns =
    time (fun () ->
        G.build_direct ~jobs ~params:(G.params g) ~population:(G.population g)
          ~overlay:(G.overlay g) ~member_oracle:Experiments.Common.h1 ())
  in
  let words = if jobs = 1 then Gc.minor_words () -. words0 else 0. in
  (g', ns, words)

let median_of = function
  | [||] -> 0.
  | a ->
      let a = Array.copy a in
      Array.sort compare a;
      a.(Array.length a / 2)

type kv = {
  put_us_p50 : float;
  get_us_p50 : float;
  rehome_ms : float;
  hit_rate : float;
  hops_mean : float;
  msgs_per_op : float;
}

let write_messages = function
  | Kvstore.Store.Stored { messages; _ } -> messages
  | Kvstore.Store.Write_blocked _ -> 0

let read_messages = function
  | Kvstore.Store.Found { messages; _ }
  | Kvstore.Store.Recovered { messages; _ }
  | Kvstore.Store.Corrupted { messages }
  | Kvstore.Store.Not_found { messages } -> messages
  | Kvstore.Store.Read_blocked _ -> 0

(* A small store on [g_from]: 512 puts, 512 gets of the same names,
   then a rehome onto [g_to]. For workloads that never touch kvstore. *)
let kv rng ~g_from ~g_to =
  let metrics = Sim.Metrics.create () in
  let store = Kvstore.Store.create ~metrics ~system_key:"perfbench-probe" g_from in
  let goods = Adversary.Population.good_ids (G.population g_from) in
  let client = Kvstore.Store.connect store ~id:(Prng.Rng.choose rng goods) in
  let names = Array.init 512 (Printf.sprintf "probe-%d") in
  let hops = ref 0 and msgs = ref 0 in
  let timed f =
    Array.map
      (fun name ->
        let r, ns = time (fun () -> f name) in
        hops := !hops + (Kvstore.Store.last_op_stats store).Kvstore.Store.hops;
        msgs := !msgs + r;
        float_of_int ns /. 1e3)
      names
  in
  let put_us = timed (fun name -> write_messages (Kvstore.Store.put client ~name ~value:name)) in
  let get_us = timed (fun name -> read_messages (Kvstore.Store.get client ~name)) in
  let _, rehome_ns = time (fun () -> Kvstore.Store.rehome store g_to) in
  let hit = Sim.Metrics.get metrics Sim.Metrics.kv_route_cache_hit in
  let miss = Sim.Metrics.get metrics Sim.Metrics.kv_route_cache_miss in
  {
    put_us_p50 = median_of put_us;
    get_us_p50 = median_of get_us;
    rehome_ms = float_of_int rehome_ns /. 1e6;
    hit_rate = float_of_int hit /. float_of_int (max 1 (hit + miss));
    hops_mean = float_of_int !hops /. 1024.;
    msgs_per_op = float_of_int !msgs /. 1024.;
  }
