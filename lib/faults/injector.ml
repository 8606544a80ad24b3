open Idspace

(* Cut sides and crash ids are consulted per message; index them by
   the 62-bit key once at creation. *)
type cut_state = {
  cut : Plan.cut;
  in_a : (int64, unit) Hashtbl.t;
  in_b : (int64, unit) Hashtbl.t;  (* empty table encodes "everyone else" *)
  mutable cut_seen_active : bool;  (* some query landed inside the window *)
  mutable heal_counted : bool;
}

type crash_state = {
  crash : Plan.crash;
  mutable crash_seen_active : bool;
  mutable recover_counted : bool;
}

type t = {
  enabled_ : bool;
  plan_ : Plan.t;
  mutable rng : Prng.Rng.t;
      (* Mutable so substreams ({!fork}) can be re-keyed per logical
         actor ({!reseed}) without reallocating the whole record. *)
  metrics_ : Metrics_core.t;
  cuts : cut_state list;
  crashes : crash_state list;
  crashed_ids : (int64, crash_state list) Hashtbl.t;
  wildcard_drop : float;
}

let index_points pts =
  let h = Hashtbl.create (max 16 (List.length pts)) in
  List.iter (fun p -> Hashtbl.replace h (Point.to_u62 p) ()) pts;
  h

(* Disabled injectors never write [crashed_ids] ([enabled_ = false]
   short-circuits every mutation path), so all of them can share one
   empty table instead of allocating a degenerate one per call —
   [disabled] is called once per run at every conditions-free
   call site, which adds up at the stress tier. *)
let no_crashed_ids : (int64, crash_state list) Hashtbl.t = Hashtbl.create 1

let disabled () =
  {
    enabled_ = false;
    plan_ = Plan.none;
    rng = Prng.Rng.of_int64 0L;
    metrics_ = Metrics_core.create ();
    cuts = [];
    crashes = [];
    crashed_ids = no_crashed_ids;
    wildcard_drop = 0.;
  }

let create ?metrics (plan : Plan.t) =
  let crashes =
    List.map
      (fun c -> { crash = c; crash_seen_active = false; recover_counted = false })
      plan.Plan.crashes
  in
  let crashed_ids = Hashtbl.create (max 16 (List.length crashes)) in
  List.iter
    (fun (s : crash_state) ->
      let k = Point.to_u62 s.crash.Plan.id in
      let prev = Option.value ~default:[] (Hashtbl.find_opt crashed_ids k) in
      Hashtbl.replace crashed_ids k (s :: prev))
    crashes;
  {
    enabled_ = true;
    plan_ = plan;
    rng = Prng.Rng.of_int64 plan.Plan.seed;
    metrics_ = (match metrics with Some m -> m | None -> Metrics_core.create ());
    cuts =
      List.map
        (fun (c : Plan.cut) ->
          {
            cut = c;
            in_a = index_points c.Plan.side_a;
            in_b = index_points c.Plan.side_b;
            cut_seen_active = false;
            heal_counted = false;
          })
        plan.Plan.cuts;
    crashes;
    crashed_ids;
    wildcard_drop = Plan.wildcard_drop plan;
  }

let plan t = t.plan_
let metrics t = t.metrics_

(* -- substreams ----------------------------------------------------

   A fork is a slice-local view for parallel transitions: it shares
   the immutable plan and the side-index tables but owns its
   window-observation flags (so domains never race on them) and
   writes its counters to the slice's metrics. The PRNG is re-keyed
   per logical actor with {!reseed}, which is what keeps the fault
   schedule a pure function of (plan seed, actor key) instead of the
   visit order. Flags are monotone booleans, so {!merge_seen} is an
   OR — commutative and associative, hence invariant under how the
   actor space was sliced. *)

let fork t ~metrics =
  if not t.enabled_ then t
  else begin
    let crashes =
      List.map
        (fun (s : crash_state) ->
          { s with crash_seen_active = false; recover_counted = false })
        t.crashes
    in
    let crashed_ids = Hashtbl.create (max 16 (List.length crashes)) in
    List.iter
      (fun (s : crash_state) ->
        let k = Point.to_u62 s.crash.Plan.id in
        let prev = Option.value ~default:[] (Hashtbl.find_opt crashed_ids k) in
        Hashtbl.replace crashed_ids k (s :: prev))
      crashes;
    {
      t with
      rng = Prng.Rng.of_int64 t.plan_.Plan.seed;
      metrics_ = metrics;
      cuts =
        List.map
          (fun (s : cut_state) ->
            { s with cut_seen_active = false; heal_counted = false })
          t.cuts;
      crashes;
      crashed_ids;
    }
  end

let reseed t ~key =
  if t.enabled_ then
    t.rng <- Prng.Rng.of_subkey t.plan_.Plan.seed key

let merge_seen ~into t =
  if t.enabled_ then begin
    List.iter2
      (fun (dst : cut_state) (src : cut_state) ->
        if src.cut_seen_active then dst.cut_seen_active <- true)
      into.cuts t.cuts;
    List.iter2
      (fun (dst : crash_state) (src : crash_state) ->
        if src.crash_seen_active then dst.crash_seen_active <- true)
      into.crashes t.crashes
  end

(* Liveness queries double as window observations: a query landing
   inside an active window marks the fault as seen, which is what
   licenses counting its heal later (observe_heals). *)
let crash_active (s : crash_state) ~now =
  let active =
    now >= s.crash.Plan.down_from
    && match s.crash.Plan.recover_at with None -> true | Some r -> now < r
  in
  if active then s.crash_seen_active <- true;
  active

let crashed t ~now id =
  t.enabled_
  &&
  match Hashtbl.find_opt t.crashed_ids (Point.to_u62 id) with
  | None -> false
  | Some cs -> List.exists (crash_active ~now) cs

let cut_active (s : cut_state) ~now =
  let active =
    now >= s.cut.Plan.from_time
    && match s.cut.Plan.heal_time with None -> true | Some h -> now < h
  in
  if active then s.cut_seen_active <- true;
  active

(* A message crosses the cut when its endpoints sit on opposite
   sides. An unknown sender (a client off the ring) is never inside
   [side_a], so it always counts as the far side: an explicit side B
   cuts side_a off from B *and* from everyone unnamed, exactly like
   the implicit "everyone else" of an empty side B. *)
let crosses (s : cut_state) ~src ~dst =
  let side h p = Hashtbl.mem h (Point.to_u62 p) in
  let dst_a = side s.in_a dst in
  let src_a = match src with Some p -> side s.in_a p | None -> false in
  let in_b p =
    if Hashtbl.length s.in_b = 0 then not (side s.in_a p) else side s.in_b p
  in
  let dst_b = in_b dst in
  let src_b = match src with Some p -> in_b p | None -> true in
  (src_a && dst_b) || (src_b && dst_a)

let severed t ~now ~src ~dst =
  t.enabled_
  && List.exists (fun s -> cut_active s ~now && crosses s ~src ~dst) t.cuts

type decision = Deliver of { extra_delay : int; copies : int } | Drop

let rule_matches (r : Plan.rule) ~src ~dst =
  (match r.Plan.src with
  | None -> true
  | Some p -> ( match src with Some s -> Point.equal p s | None -> false))
  && match r.Plan.dst with None -> true | Some p -> Point.equal p dst

let decide t ~now ~src ~dst =
  if not t.enabled_ then Deliver { extra_delay = 0; copies = 1 }
  else begin
    let m = t.metrics_ in
    let endpoint_crashed =
      crashed t ~now dst || match src with Some s -> crashed t ~now s | None -> false
    in
    if endpoint_crashed || severed t ~now ~src ~dst then begin
      Metrics_core.incr m Metrics_core.fault_suppressed;
      Drop
    end
    else begin
      (* Every matching rule draws in plan order so the schedule is a
         pure function of (plan, message sequence). *)
      let dropped = ref false in
      let copies = ref 1 in
      let extra = ref 0 in
      List.iter
        (fun (r : Plan.rule) ->
          if (not !dropped) && rule_matches r ~src ~dst then begin
            let rr = r.Plan.rates in
            if Prng.Rng.bernoulli t.rng rr.Plan.drop then begin
              Metrics_core.incr m Metrics_core.fault_injected;
              Metrics_core.incr m Metrics_core.fault_suppressed;
              dropped := true
            end
            else begin
              if Prng.Rng.bernoulli t.rng rr.Plan.duplicate then begin
                Metrics_core.incr m Metrics_core.fault_injected;
                incr copies
              end;
              if Prng.Rng.bernoulli t.rng rr.Plan.delay then begin
                Metrics_core.incr m Metrics_core.fault_injected;
                let lo, hi = rr.Plan.delay_ms in
                extra := !extra + Prng.Rng.int_in t.rng lo hi
              end;
              if Prng.Rng.bernoulli t.rng rr.Plan.reorder then begin
                Metrics_core.incr m Metrics_core.fault_injected;
                extra := !extra + Prng.Rng.int_in t.rng 1 rr.Plan.reorder_ms
              end
            end
          end)
        t.plan_.Plan.rules;
      if !dropped then Drop else Deliver { extra_delay = !extra; copies = !copies }
    end
  end

let search_lost t =
  t.enabled_
  &&
  let lost = Prng.Rng.bernoulli t.rng t.wildcard_drop in
  if lost then begin
    Metrics_core.incr t.metrics_ Metrics_core.fault_injected;
    Metrics_core.incr t.metrics_ Metrics_core.fault_suppressed
  end;
  lost

let observe_heals t ~now =
  if t.enabled_ then begin
    (* The observation point itself witnesses a window in progress;
       only a fault that was ever observed active can heal — a clock
       that jumps straight past the window healed nothing anyone
       saw. *)
    List.iter
      (fun s ->
        ignore (cut_active s ~now);
        match s.cut.Plan.heal_time with
        | Some h when s.cut_seen_active && (not s.heal_counted) && now >= h ->
            s.heal_counted <- true;
            Metrics_core.incr t.metrics_ Metrics_core.fault_healed
        | _ -> ())
      t.cuts;
    List.iter
      (fun s ->
        ignore (crash_active s ~now);
        match s.crash.Plan.recover_at with
        | Some r when s.crash_seen_active && (not s.recover_counted) && now >= r ->
            s.recover_counted <- true;
            Metrics_core.incr t.metrics_ Metrics_core.fault_healed
        | _ -> ())
      t.crashes
  end
