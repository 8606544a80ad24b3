(* The repository benchmark: one process runs one workload, measures
   it end to end for a fixed wall-clock window, checks its outputs and
   prints one JSON result line.

     bench.exe --workload churn|epoch|serve --seed N --seconds S --trace 0|1

   Workloads (why each exists, which layers it loads and which it
   bypasses, and which end-to-end metric each layer metric should
   move are recorded in perfbench/README.md):

   - churn: n = 65536 graph from [Group_graph.build_direct], then
     rounds of [Dynamic.depart_many] of 512 random leaders followed by
     [Dynamic.join_many] of 512 fresh IDs through the pre-round graph.
   - epoch: n = 2048 paired Chord, [Epoch.advance] at build_jobs 2
     under a drop 0.15 x 8 retries x circuit 4 plan.
   - serve: 64 closed-loop users driven by [Workload.Traffic.run]
     against a [Kvstore.Store] with its route cache, Zipf 0.9 over
     16384 names, rehomed across four prebuilt epoch graphs.

   With --trace 0 the window is untraced and the result carries the
   end-to-end metrics. With --trace 1 the window is split: the first
   half untraced, the second half records spans around every call the
   benchmark makes into the library, then probes replay single-layer
   calls on the same world. The result carries the per-layer metrics,
   including the traced/untraced per-op time ratio as tracing
   overhead, and the spans are written to perfbench/out/. *)

module G = Tinygroups.Group_graph
module M = Sim.Metrics
module Store = Kvstore.Store

(* -- command line ---------------------------------------------------- *)

type cli = { workload : string; seed : int; seconds : float; trace : bool }

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let cli =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | arg :: _ -> die "bad argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace -> { workload; seed; seconds; trace }
  | _ -> die "usage: bench --workload churn|epoch|serve --seed N --seconds S --trace 0|1"

(* -- measurement helpers --------------------------------------------- *)

let spans = Span.create ~cap:400_000

let time f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Span.now_ns () - t0)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest-rank quantile; 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      s.(max 0 (min (t.n - 1) (int_of_float (Float.ceil (q *. float_of_int t.n)) - 1)))
    end
end

let median xs = Probe.median_of (Array.of_list xs)

(* Every output check lands here; one failed check fails the run. *)
let checks : (string * bool) list ref = ref []

let check name ok =
  if not (List.mem_assoc name !checks) then checks := (name, ok) :: !checks
  else if not ok then checks := (name, false) :: List.remove_assoc name !checks

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some v -> v
            | None -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let census_string (c : G.census) =
  Printf.sprintf "total=%d good=%d weak=%d hijacked=%d confused=%d suspect=%d red=%d" c.G.total
    c.G.good c.G.weak c.G.hijacked_ c.G.confused_ c.G.suspect_ c.G.red

let counters_string snap =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (M.to_list snap))

(* -- the workload contract -------------------------------------------- *)

(* One step of a workload: [ops] operations attempted, [ok] of them
   succeeded at the protocol level, and [fp] is the step's canonical
   text for the fingerprint. *)
type step = { ops : int; ok : int; fp : string }

type 'w workload = {
  setup_reps : int;  (** set-ups in an untraced run; setup_s is their median *)
  setup : Prng.Rng.t -> 'w;
  same : 'w -> 'w -> bool;  (** two set-ups of one seed must agree *)
  fp_steps : int;  (** steps the fingerprint covers: the deterministic prefix *)
  step : 'w -> int -> Samples.t -> step;
      (** run step [i], adding one per-op time sample (us) per timed unit *)
  named : 'w -> (string * float * string) list;
      (** the workload's own end-to-end figures, printed for readers *)
  layers : 'w -> Prng.Rng.t -> (string * float) list;
      (** per-layer figures of the traced window plus probes *)
}

type outcome = {
  setup_s : float;
  attempted : int;
  ok : int;
  window_ns : int;  (** untraced window *)
  window_ops : int;
  op_us : Samples.t;  (** untraced per-op samples *)
  fingerprint : string;
  named : (string * float * string) list;
  layers : (string * float) list;
}

let run_workload (type w) (wl : w workload) =
  let base = Prng.Rng.create cli.seed in
  let reps = if cli.trace then 1 else wl.setup_reps in
  let setup_ns = ref [] in
  let world = ref None in
  for _ = 1 to reps do
    let w, ns = time (fun () -> wl.setup (Prng.Rng.copy base)) in
    setup_ns := float_of_int ns :: !setup_ns;
    (match !world with Some w0 -> check "setup.deterministic" (wl.same w0 w) | None -> ());
    world := Some w
  done;
  let w = Option.get !world in
  (* Start the window from a compacted heap, so the garbage of earlier
     set-ups is not collected on the window's time. *)
  Gc.compact ();
  let fp = Buffer.create 4096 in
  let attempted = ref 0 and ok = ref 0 in
  let next = ref 0 in
  (* Steps run until the window's seconds have passed; the fingerprint
     prefix must be reached even when the window is short. *)
  let window ~seconds ~min_steps samples =
    let budget = int_of_float (seconds *. 1e9) in
    let first = !next in
    let t0 = Span.now_ns () in
    let ops = ref 0 in
    while !next - first < min_steps || Span.now_ns () - t0 < budget do
      let s = wl.step w !next samples in
      if !next < wl.fp_steps then Buffer.add_string fp (Printf.sprintf "%d|%s\n" !next s.fp);
      attempted := !attempted + s.ops;
      ok := !ok + s.ok;
      ops := !ops + s.ops;
      incr next
    done;
    (Span.now_ns () - t0, !ops)
  in
  let op_us = Samples.create () and traced_op_us = Samples.create () in
  let untraced_seconds = if cli.trace then cli.seconds /. 2. else cli.seconds in
  let window_ns, window_ops =
    window ~seconds:untraced_seconds
      ~min_steps:(if cli.trace then 1 else wl.fp_steps)
      op_us
  in
  let layers =
    if not cli.trace then []
    else begin
      let gc0 = Gc.quick_stat () in
      Span.set_tracing spans true;
      ignore
        (window ~seconds:(cli.seconds /. 2.)
           ~min_steps:(max 1 (wl.fp_steps - !next))
           traced_op_us);
      let gc1 = Gc.quick_stat () in
      let layers = wl.layers w (Prng.Rng.of_int64 (Int64.of_int (cli.seed + 1_000_003))) in
      Span.set_tracing spans false;
      [
        ( "gc.minor_collections",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ( "trace.overhead_frac",
          (Samples.quantile traced_op_us 0.5 /. Samples.quantile op_us 0.5) -. 1. );
        ("trace.spans", float_of_int (Span.count spans));
      ]
      @ layers
    end
  in
  {
    setup_s = median !setup_ns /. 1e9;
    attempted = !attempted;
    ok = !ok;
    window_ns;
    window_ops;
    op_us;
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents fp));
    named = wl.named w;
    layers;
  }

let probe name f = Span.with_span spans name f

(* Probes every workload replays on its world in the traced run. *)
let common_probes rng ~graph ~old_pair ~ring_k =
  let ring = Adversary.Population.ring (G.population graph) in
  let fold_ns, batch_ns, same =
    probe "probe.ring_add" (fun () -> Probe.ring_add ring (Probe.fresh_points rng ring ring_k))
  in
  check "probe.ring_add_fold=add_batch" same;
  let g1, build1_ns, words = probe "probe.build_direct" (fun () -> Probe.build ~jobs:1 graph) in
  let route_us, route_msgs = probe "probe.search" (fun () -> Probe.route rng graph) in
  let layers =
    [
      ("host.cores", float_of_int (Domain.recommended_domain_count ()));
      ("ring.add_fold_s", float_of_int fold_ns /. 1e9);
      ("ring.add_batch_s", float_of_int batch_ns /. 1e9);
      ("oracle.query_ns", probe "probe.oracle" Probe.oracle_query_ns);
      ("graph.build_s", float_of_int build1_ns /. 1e9);
      ("graph.build_words", words);
      ("graph.form_group_us", probe "probe.form_group" (fun () -> Probe.form_group_us rng graph));
      ( "overlay.neighbors_of_us",
        probe "probe.neighbors_of" (fun () -> Probe.neighbors_of_us rng graph) );
      ("route.search_us", route_us);
      ("route.msgs", route_msgs);
      ("membership.solicit_us", probe "probe.solicit" (fun () -> Probe.solicit_us rng old_pair));
      ("metrics.add_ns", probe "probe.metrics_add" Probe.metrics_add_ns);
    ]
  in
  (layers, g1, build1_ns)

(* parallel.speedup for workloads whose only parallel phase is the
   graph build: the probe build at jobs 1 over a jobs-2 build of the
   same world, which must be equal. *)
let build_speedup graph g1 build1_ns =
  let g2, build2_ns, _ = probe "probe.build_direct.jobs2" (fun () -> Probe.build ~jobs:2 graph) in
  check "probe.build_jobs1=jobs2" (G.equal g1 g2);
  float_of_int build1_ns /. float_of_int build2_ns

let traffic_probe rng dist = probe "probe.traffic" (fun () -> Probe.traffic_overhead_us rng dist)

(* kvstore figures for workloads that do not serve: a probe store. *)
let kv_probe_layers (kv : Probe.kv) =
  [
    ("kv.route_cache_hit_rate", kv.Probe.hit_rate);
    ("kv.hops_mean", kv.Probe.hops_mean);
    ("kv.msgs_per_op", kv.Probe.msgs_per_op);
    ("kv.rehome_ms", kv.Probe.rehome_ms);
    ("kv.get_us.p50", kv.Probe.get_us_p50);
    ("kv.put_us.p50", kv.Probe.put_us_p50);
  ]

let zipf_dist count =
  Workload.Resources.distribution
    (Workload.Resources.synthetic ~system_key:"perfbench" ~count ~prefix:"k")
    (Workload.Resources.Zipf 0.9)

let beta = 0.05

(* -- churn ---------------------------------------------------------- *)

let churn_n = 65536
let churn_k = 512 (* E25's min(512, n/64) *)

type churn = {
  mutable graph : G.t;
  mutable prev : G.t;
  stream : Prng.Rng.t;
  mutable join_ns : int;
  mutable joins : int;
  mutable depart_ns : int;
  mutable departs : int;
  (* traced window *)
  mutable t_batches : int;
  mutable t_join_words : float;
  mutable t_depart_words : float;
  mutable t_rebuilds : int;
  mutable t_lone : int;
  mutable t_membership_msgs : int;
}

let churn_setup rng =
  let _, g = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n:churn_n ~beta () in
  {
    graph = g;
    prev = g;
    stream = Prng.Rng.split rng;
    join_ns = 0;
    joins = 0;
    depart_ns = 0;
    departs = 0;
    t_batches = 0;
    t_join_words = 0.;
    t_depart_words = 0.;
    t_rebuilds = 0;
    t_lone = 0;
    t_membership_msgs = 0;
  }

let cost_string (c : Tinygroups.Dynamic.cost) =
  Printf.sprintf "searches=%d messages=%d affected=%d updates=%d" c.searches c.messages
    c.affected_groups c.member_updates

let churn_step w i samples =
  let rng = Prng.Rng.split w.stream in
  let round = Span.enter spans ~op:i "churn.round" in
  let g = w.graph in
  let leaders = G.leaders g in
  let victims =
    Array.to_list
      (Array.map
         (fun j -> leaders.(j))
         (Prng.Rng.sample_without_replacement rng churn_k (Array.length leaders)))
  in
  let words0 = Gc.minor_words () in
  let sp = Span.enter spans ~parent:round ~op:i "dynamic.depart_many" in
  let (g_dep, dcost), dep_ns = time (fun () -> Tinygroups.Dynamic.depart_many g ~ids:victims) in
  Span.leave spans sp;
  let words1 = Gc.minor_words () in
  let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g None in
  let ring = Adversary.Population.ring (G.population g) in
  let newcomers =
    List.map
      (fun p -> (p, Prng.Rng.bernoulli rng beta))
      (Probe.fresh_points rng ring churn_k)
  in
  let m = M.create () in
  let sp = Span.enter spans ~parent:round ~op:i "dynamic.join_many" in
  let (g', jcost), join_ns =
    time (fun () ->
        Tinygroups.Dynamic.join_many (Prng.Rng.split rng) m g_dep ~old_pair
          ~member_oracle:Experiments.Common.h1 ~ids:newcomers)
  in
  Span.leave spans sp;
  let words2 = Gc.minor_words () in
  Span.leave spans round;
  w.prev <- g;
  w.graph <- g';
  let lone = M.get m M.group_lone_leader and rebuilds = M.get m M.overlay_rebuilds in
  check "churn.overlay_rebuilds=1_per_batch" (rebuilds = 1);
  check "churn.ring_size_kept"
    (Idspace.Ring.cardinal (Adversary.Population.ring (G.population g')) = churn_n);
  Samples.add samples (float_of_int (dep_ns + join_ns) /. 1e3 /. float_of_int (2 * churn_k));
  if Span.tracing spans then begin
    w.t_batches <- w.t_batches + 1;
    w.t_depart_words <- w.t_depart_words +. (words1 -. words0);
    w.t_join_words <- w.t_join_words +. (words2 -. words1);
    w.t_rebuilds <- w.t_rebuilds + rebuilds;
    w.t_lone <- w.t_lone + lone;
    w.t_membership_msgs <- w.t_membership_msgs + M.get m M.msg_membership
  end
  else begin
    w.depart_ns <- w.depart_ns + dep_ns;
    w.departs <- w.departs + churn_k;
    w.join_ns <- w.join_ns + join_ns;
    w.joins <- w.joins + churn_k
  end;
  {
    ops = 2 * churn_k;
    ok = (2 * churn_k) - lone;
    fp =
      Printf.sprintf "depart %s join %s rebuilds=%d counters %s census %s" (cost_string dcost)
        (cost_string jcost) rebuilds
        (counters_string (M.snapshot m))
        (census_string (G.census g'));
  }

let churn =
  {
    setup_reps = 3;
    setup = churn_setup;
    same = (fun a b -> G.equal a.graph b.graph);
    fp_steps = 2;
    step = churn_step;
    named =
      (fun w ->
        [
          ("joins_per_s", float_of_int w.joins /. (float_of_int w.join_ns /. 1e9), "1/s");
          ("departs_per_s", float_of_int w.departs /. (float_of_int w.depart_ns /. 1e9), "1/s");
        ]);
    layers =
      (fun w rng ->
        let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority w.graph None in
        let common, g1, build1_ns = common_probes rng ~graph:w.graph ~old_pair ~ring_k:churn_k in
        let batches = float_of_int (max 1 w.t_batches) in
        common
        @ kv_probe_layers
            (probe "probe.kvstore" (fun () -> Probe.kv rng ~g_from:w.prev ~g_to:w.graph))
        @ [
            ("parallel.speedup", build_speedup w.graph g1 build1_ns);
            ("overlay.rebuilds", float_of_int w.t_rebuilds /. batches);
            ( "membership.msgs_per_join",
              float_of_int w.t_membership_msgs /. (batches *. float_of_int churn_k) );
            ("dynamic.join_words", w.t_join_words /. batches);
            ("dynamic.depart_words", w.t_depart_words /. batches);
            ("group.lone_leader", float_of_int w.t_lone);
            ("traffic.overhead_us", traffic_probe rng (zipf_dist 16384));
          ]);
  }

(* -- epoch ---------------------------------------------------------- *)

let epoch_n = 2048

let epoch_config ~jobs =
  { (Tinygroups.Epoch.default_config ~n:epoch_n) with Tinygroups.Epoch.build_jobs = jobs }

(* bench/epoch.ml's drop0.15xretry8 plan. *)
let masked () =
  Sim.Conditions.make
    ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.15 ()) 42L)
    ~reliability:(Reliability.Policy.make ~seed:42L ~max_retries:8 ~circuit_threshold:4 ())
    ()

type frozen = {
  f_primary : G.t;
  f_secondary : G.t option;
  f_history : (int * G.census) list;
  f_metrics : M.snapshot;
}

let freeze eh =
  {
    f_primary = Tinygroups.Epoch.primary eh;
    f_secondary = Tinygroups.Epoch.secondary eh;
    f_history = Tinygroups.Epoch.history eh;
    f_metrics = M.snapshot (Tinygroups.Epoch.metrics eh);
  }

let frozen_equal a b =
  G.equal a.f_primary b.f_primary
  && (match (a.f_secondary, b.f_secondary) with
     | None, None -> true
     | Some x, Some y -> G.equal x y
     | _ -> false)
  && a.f_history = b.f_history
  && a.f_metrics = b.f_metrics

type epoch = {
  eh : Tinygroups.Epoch.t;
  init_rng : Prng.Rng.t;  (* a copy of the stream [init] consumed *)
  mutable advance_ns : float list;  (* jobs 2, newest first *)
  mutable prefix : frozen option;  (* state after the fingerprint prefix *)
  mutable t_advances : int;
  t_counters : M.t;  (* counter diffs summed over the traced advances *)
}

let epoch_fp_steps = 3

let epoch_step w i samples =
  let before = M.snapshot (Tinygroups.Epoch.metrics w.eh) in
  let sp = Span.enter spans ~op:i "epoch.advance" in
  let (), ns = time (fun () -> Tinygroups.Epoch.advance w.eh) in
  Span.leave spans sp;
  let diff = M.diff (M.snapshot (Tinygroups.Epoch.metrics w.eh)) before in
  let census = G.census (Tinygroups.Epoch.primary w.eh) in
  check "epoch.history_grows" (List.length (Tinygroups.Epoch.history w.eh) = i + 2);
  w.advance_ns <- float_of_int ns :: w.advance_ns;
  if i = epoch_fp_steps - 1 then w.prefix <- Some (freeze w.eh);
  Samples.add samples (float_of_int ns /. 1e3 /. float_of_int census.G.total);
  if Span.tracing spans then begin
    w.t_advances <- w.t_advances + 1;
    M.merge w.t_counters (M.of_snapshot diff)
  end;
  {
    ops = census.G.total;
    ok = census.G.total - census.G.red;
    fp = Printf.sprintf "counters %s census %s" (counters_string diff) (census_string census);
  }

(* The traced run's jobs-1 replay of the fingerprint prefix: it must
   reproduce the jobs-2 world exactly. Allocation is read here because
   a jobs-1 advance allocates on the calling domain only. *)
let epoch_replay w =
  let eh =
    Tinygroups.Epoch.init ~conditions:(masked ()) (Prng.Rng.copy w.init_rng)
      (epoch_config ~jobs:1)
  in
  let runs =
    List.init epoch_fp_steps (fun i ->
        let words0 = Gc.minor_words () in
        let sp = Span.enter spans ~op:i "epoch.advance.jobs1" in
        let (), ns = time (fun () -> Tinygroups.Epoch.advance eh) in
        Span.leave spans sp;
        (float_of_int ns, Gc.minor_words () -. words0))
  in
  (match w.prefix with
  | Some f -> check "epoch.jobs1_replay=jobs2" (frozen_equal f (freeze eh))
  | None -> check "epoch.jobs1_replay=jobs2" false);
  let jobs2 = List.filteri (fun i _ -> i < epoch_fp_steps) (List.rev w.advance_ns) in
  let speedup = median (List.map2 (fun (j1, _) j2 -> j1 /. j2) runs jobs2) in
  (speedup, median (List.map snd runs))

let epoch =
  {
    setup_reps = 9;
    setup =
      (fun rng ->
        let init_rng = Prng.Rng.copy rng in
        {
          eh = Tinygroups.Epoch.init ~conditions:(masked ()) rng (epoch_config ~jobs:2);
          init_rng;
          advance_ns = [];
          prefix = None;
          t_advances = 0;
          t_counters = M.create ();
        });
    same = (fun a b -> frozen_equal (freeze a.eh) (freeze b.eh));
    fp_steps = epoch_fp_steps;
    step = epoch_step;
    named = (fun w -> [ ("epoch_s", median w.advance_ns /. 1e9, "s") ]);
    layers =
      (fun w rng ->
        let speedup, advance_words = epoch_replay w in
        let graph = Tinygroups.Epoch.primary w.eh in
        let common, _, _ =
          common_probes rng ~graph ~old_pair:(Tinygroups.Epoch.old_pair w.eh)
            ~ring_k:(epoch_n / 64)
        in
        let per name = float_of_int (M.get w.t_counters name) in
        let advances = float_of_int (max 1 w.t_advances) in
        (* The paired mode always has a second graph to rehome onto. *)
        let g_to = Option.get (Tinygroups.Epoch.secondary w.eh) in
        common
        @ kv_probe_layers (probe "probe.kvstore" (fun () -> Probe.kv rng ~g_from:graph ~g_to))
        @ [
            ("parallel.speedup", speedup);
            ("epoch.advance_words", advance_words);
            ("overlay.rebuilds", per M.overlay_rebuilds /. advances);
            ("membership.msgs_per_epoch", per M.msg_membership /. advances);
            ("group.lone_leader", per M.group_lone_leader);
            ("fault.injected", per M.fault_injected /. advances);
            ("retry.attempted", per M.retry_attempted /. advances);
            ("retry.acked", per M.retry_acked /. advances);
            ("retry.exhausted", per M.retry_exhausted /. advances);
            ( "retry.ack_ratio",
              if per M.retry_attempted = 0. then 0.
              else per M.retry_acked /. per M.retry_attempted );
            ("traffic.overhead_us", traffic_probe rng (zipf_dist 16384));
          ]);
  }

(* -- serve ---------------------------------------------------------- *)

let serve_n = 2048
let serve_graphs = 4
let serve_names = 16384
let serve_users = 64
let serve_ops_per_user = 1000

(* Outcome classes, in fingerprint order. *)
let found = 0
and recovered = 1
and corrupted = 2
and not_found = 3
and read_blocked = 4
and stored = 5
and write_blocked = 6

type serve = {
  graphs : G.t array;
  mutable store : Store.t;
  resources : Workload.Resources.t;
  dist : Workload.Resources.dist;
  shadow : (string, string option) Hashtbl.t;  (* last acknowledged write *)
  stream : Prng.Rng.t;
  mutable mismatches : int;
  (* traced window *)
  t_get_us : Samples.t;
  t_put_us : Samples.t;
  mutable t_ops : int;
  mutable t_hops : int;
  mutable t_msgs : int;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_rehome_ns : int list;
}

let serve_setup rng =
  let graphs =
    Array.init serve_graphs (fun _ ->
        snd (Experiments.Common.build_tiny (Prng.Rng.split rng) ~n:serve_n ~beta ()))
  in
  let store = Store.create ~metrics:(M.create ()) ~system_key:"perfbench" graphs.(0) in
  let resources =
    Workload.Resources.synthetic ~system_key:"perfbench" ~count:serve_names ~prefix:"k"
  in
  let goods = Adversary.Population.good_ids (G.population graphs.(0)) in
  let client = Store.connect store ~id:goods.(0) in
  let shadow = Hashtbl.create serve_names in
  for i = 0 to serve_names - 1 do
    let name = Workload.Resources.name resources i in
    match Store.put client ~name ~value:"v0" with
    | Store.Stored _ -> Hashtbl.replace shadow name (Some "v0")
    | Store.Write_blocked _ -> ()
  done;
  {
    graphs;
    store;
    resources;
    dist = Workload.Resources.distribution resources (Workload.Resources.Zipf 0.9);
    shadow;
    stream = Prng.Rng.split rng;
    mismatches = 0;
    t_get_us = Samples.create ();
    t_put_us = Samples.create ();
    t_ops = 0;
    t_hops = 0;
    t_msgs = 0;
    t_hits = 0;
    t_misses = 0;
    t_rehome_ns = [];
  }

let serve_same a b =
  Store.record_count a.store = Store.record_count b.store
  && Array.for_all2 (fun x y -> G.equal x y) a.graphs b.graphs
  && Hashtbl.fold (fun name v ok -> ok && Hashtbl.find_opt b.shadow name = Some v) a.shadow true

let op_names = [| "kv.get"; "kv.put"; "kv.delete" |]

let serve_step w i samples =
  let rng = Prng.Rng.split w.stream in
  let tracing = Span.tracing spans in
  let seg = Span.enter spans ~op:i "serve.segment" in
  if i > 0 then begin
    let sp = Span.enter spans ~parent:seg ~op:i "kv.rehome" in
    let store, ns =
      time (fun () -> Store.rehome w.store w.graphs.(i mod serve_graphs))
    in
    Span.leave spans sp;
    w.store <- store;
    if tracing then w.t_rehome_ns <- ns :: w.t_rehome_ns
  end;
  let metrics = Store.metrics w.store in
  let before = M.snapshot metrics in
  let goods = Adversary.Population.good_ids (G.population (Store.graph w.store)) in
  let clients =
    Array.init serve_users (fun _ -> Store.connect w.store ~id:(Prng.Rng.choose rng goods))
  in
  let counts = Array.make 7 0 in
  let msgs = ref 0 and hops = ref 0 in
  let run_sp = Span.enter spans ~parent:seg ~op:i "traffic.run" in
  let spec =
    {
      Workload.Traffic.users = serve_users;
      ops_per_user = serve_ops_per_user;
      think_ms = 50.;
      mix = Workload.Traffic.default_mix;
      dist = w.dist;
    }
  in
  let stats =
    Workload.Traffic.run (Prng.Rng.split rng) spec
      ~execute:(fun ~user ~seq ~now:_ ~op ~key _ ->
        let name = Workload.Resources.name w.resources key in
        let client = clients.(user) in
        let cls = match op with Workload.Traffic.Get -> 0 | Put -> 1 | Delete -> 2 in
        let value = if cls = 1 then Printf.sprintf "%d.%d.%d" i user seq else "" in
        (* One op in eight carries a span: enough to attribute op time,
           and it keeps the span buffer to the whole traced window. *)
        let sp =
          if seq land 7 = 0 then
            Span.enter spans ~parent:run_sp ~op:((i * 1_000_000) + (user * 10_000) + seq)
              op_names.(cls)
          else -1
        in
        let t0 = Span.now_ns () in
        let outcome, m =
          match op with
          | Workload.Traffic.Get -> (
              match Store.get client ~name with
              | Store.Found { value; messages; _ } ->
                  if Hashtbl.find_opt w.shadow name <> Some (Some value) then
                    w.mismatches <- w.mismatches + 1;
                  (found, messages)
              | Store.Recovered { value; messages; _ } ->
                  if Hashtbl.find_opt w.shadow name <> Some (Some value) then
                    w.mismatches <- w.mismatches + 1;
                  (recovered, messages)
              | Store.Corrupted { messages } -> (corrupted, messages)
              | Store.Not_found { messages } ->
                  (match Hashtbl.find_opt w.shadow name with
                  | Some (Some _) -> w.mismatches <- w.mismatches + 1
                  | _ -> ());
                  (not_found, messages)
              | Store.Read_blocked _ -> (read_blocked, 0))
          | Put | Delete -> (
              let r =
                if cls = 1 then Store.put client ~name ~value else Store.delete client ~name
              in
              match r with
              | Store.Stored { messages; _ } ->
                  Hashtbl.replace w.shadow name (if cls = 1 then Some value else None);
                  (stored, messages)
              | Store.Write_blocked _ -> (write_blocked, 0))
        in
        let dt = float_of_int (Span.now_ns () - t0) /. 1e3 in
        Span.leave spans sp;
        Samples.add samples dt;
        counts.(outcome) <- counts.(outcome) + 1;
        let h = (Store.last_op_stats w.store).Store.hops in
        msgs := !msgs + m;
        hops := !hops + h;
        if tracing then begin
          if cls = 0 then Samples.add w.t_get_us dt
          else if cls = 1 then Samples.add w.t_put_us dt
        end;
        1 + h)
  in
  Span.leave spans run_sp;
  Span.leave spans seg;
  let diff = M.diff (M.snapshot metrics) before in
  let ops = stats.Workload.Traffic.ops in
  if tracing then begin
    w.t_ops <- w.t_ops + ops;
    w.t_hops <- w.t_hops + !hops;
    w.t_msgs <- w.t_msgs + !msgs;
    w.t_hits <- w.t_hits + M.found diff M.kv_route_cache_hit;
    w.t_misses <- w.t_misses + M.found diff M.kv_route_cache_miss
  end;
  check "serve.reads_match_acknowledged_writes" (w.mismatches = 0);
  let failed = counts.(corrupted) + counts.(read_blocked) + counts.(write_blocked) in
  {
    ops;
    ok = ops - failed;
    fp =
      Printf.sprintf "outcomes %s msgs=%d hops=%d makespan=%d records=%d counters %s census %s"
        (String.concat "," (Array.to_list (Array.map string_of_int counts)))
        !msgs !hops stats.Workload.Traffic.makespan_ms (Store.record_count w.store)
        (counters_string diff)
        (census_string (G.census (Store.graph w.store)));
  }

let serve =
  {
    setup_reps = 5;
    setup = serve_setup;
    same = serve_same;
    fp_steps = 2;
    step = serve_step;
    named = (fun _ -> []);
    layers =
      (fun w rng ->
        let graph = Store.graph w.store in
        let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority graph None in
        let common, g1, build1_ns = common_probes rng ~graph ~old_pair ~ring_k:(serve_n / 64) in
        let ops = float_of_int (max 1 w.t_ops) in
        common
        @ [
            ("parallel.speedup", build_speedup graph g1 build1_ns);
            ( "kv.route_cache_hit_rate",
              float_of_int w.t_hits /. float_of_int (max 1 (w.t_hits + w.t_misses)) );
            ("kv.hops_mean", float_of_int w.t_hops /. ops);
            ("kv.msgs_per_op", float_of_int w.t_msgs /. ops);
            ("kv.rehome_ms", median (List.map float_of_int w.t_rehome_ns) /. 1e6);
            ("kv.get_us.p50", Samples.quantile w.t_get_us 0.5);
            ("kv.put_us.p50", Samples.quantile w.t_put_us 0.5);
            ("traffic.overhead_us", traffic_probe rng w.dist);
          ]);
  }

(* -- report --------------------------------------------------------- *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_us.p50", "us");
    ("op_us.p99", "us");
    ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
  ]

let per_layer_units =
  [
    ("host.cores", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.spans", "count");
    ("ring.add_fold_s", "s");
    ("ring.add_batch_s", "s");
    ("oracle.query_ns", "ns");
    ("graph.build_s", "s");
    ("graph.build_words", "words");
    ("graph.form_group_us", "us");
    ("overlay.neighbors_of_us", "us");
    ("overlay.rebuilds", "count");
    ("route.search_us", "us");
    ("route.msgs", "count");
    ("membership.solicit_us", "us");
    ("membership.msgs_per_join", "count");
    ("membership.msgs_per_epoch", "count");
    ("dynamic.join_words", "words");
    ("dynamic.depart_words", "words");
    ("group.lone_leader", "count");
    ("epoch.advance_words", "words");
    ("fault.injected", "count");
    ("retry.attempted", "count");
    ("retry.acked", "count");
    ("retry.exhausted", "count");
    ("retry.ack_ratio", "ratio");
    ("parallel.speedup", "x");
    ("kv.route_cache_hit_rate", "ratio");
    ("kv.hops_mean", "count");
    ("kv.msgs_per_op", "count");
    ("kv.rehome_ms", "ms");
    ("kv.get_us.p50", "us");
    ("kv.put_us.p50", "us");
    ("traffic.overhead_us", "us");
    ("metrics.add_ns", "ns");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
  ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let expected_fingerprint () =
  match open_in "perfbench/fingerprints.txt" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ wl; seed; hex ] when wl = cli.workload && int_of_string_opt seed = Some cli.seed ->
                Some hex
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let write_spans () =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s.csv" cli.workload) in
  Span.write spans path;
  Printf.printf "spans %d written to %s (%d dropped)\n" (Span.count spans) path (Span.dropped spans)

(* The issue's per-workload names for the end-to-end metrics of serve. *)
let serve_aliases =
  [ ("kv_ops_per_s", "ops_per_s"); ("kv_op_us.p50", "op_us.p50"); ("kv_op_us.p99", "op_us.p99") ]

let () =
  let run () =
    match cli.workload with
    | "churn" -> run_workload churn
    | "epoch" -> run_workload epoch
    | "serve" -> run_workload serve
    | other -> die "unknown workload %s (churn, epoch or serve)" other
  in
  Printf.printf "workload %s seed %d seconds %g trace %d cores %d\n%!" cli.workload cli.seed
    cli.seconds (Bool.to_int cli.trace) (Domain.recommended_domain_count ());
  let units = if cli.trace then per_layer_units else end_to_end_units in
  let values, attempted =
    match run () with
    | exception e ->
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        check "no_exception" false;
        ([], 1)
    | o ->
        (match expected_fingerprint () with
        | Some hex -> check "fingerprint=recorded" (hex = o.fingerprint)
        | None -> ());
        Printf.printf "fingerprint %s\n" o.fingerprint;
        let fail_frac = float_of_int (o.attempted - o.ok) /. float_of_int (max 1 o.attempted) in
        let e2e =
          [
            ("setup_s", o.setup_s);
            ("ops_per_s", float_of_int o.window_ops /. (float_of_int o.window_ns /. 1e9));
            ("op_us.p50", Samples.quantile o.op_us 0.5);
            ("op_us.p99", Samples.quantile o.op_us 0.99);
            ("peak_rss_mb", float_of_int (vmhwm_kb ()) /. 1024.);
            ("ok_frac", 1. -. fail_frac);
          ]
        in
        let unit_of name = Option.value ~default:"ratio" (List.assoc_opt name end_to_end_units) in
        List.iter
          (fun (name, v, unit) -> Printf.printf "named %s %s %s\n" name (json_number v) unit)
          (o.named
          @ List.filter_map
              (fun (alias, name) ->
                if cli.workload = "serve" then Some (alias, List.assoc name e2e, unit_of name)
                else None)
              serve_aliases
          @ List.map
              (fun name -> (name, List.assoc name e2e, unit_of name))
              [ "setup_s"; "peak_rss_mb" ]
          @ [ ("fail_frac", fail_frac, "ratio") ]);
        if cli.trace then begin
          write_spans ();
          (o.layers, max 1 o.attempted)
        end
        else (e2e, max 1 o.attempted)
  in
  let correct = List.for_all snd !checks in
  List.iter
    (fun (name, ok) -> Printf.printf "check %s %s\n" name (if ok then "ok" else "FAILED"))
    (List.rev !checks);
  (* A per-layer figure a workload does not report belongs to a layer
     it bypasses: its count is 0. *)
  let metrics =
    List.map
      (fun (name, unit) -> (name, Option.value ~default:0. (List.assoc_opt name values), unit))
      units
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (json_number v) unit)
    metrics;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted
    (if correct then 0 else attempted)
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
          metrics));
  print_newline ()
