(** The runtime of a {!Plan}: per-message verdicts and liveness
    queries, drawn from the plan's own seeded stream.

    An injector owns a private {!Prng.Rng.t} created from
    [plan.seed] alone. It never reads the simulation's streams, so
    consulting it cannot perturb a run's latency samples or trial
    draws — which is exactly what makes a zero-rate plan
    byte-identical to running without one, and the schedule invariant
    under [--jobs].

    Counters are accounted into a {!Metrics_core.t} (the caller's, or
    a private one) under {!Metrics_core.fault_injected} /
    [fault_suppressed] / [fault_healed]. *)

open Idspace

type t

val disabled : unit -> t
(** Never injects, never draws; {!decide} always answers plain
    delivery. What [?faults:None] threads through the stack. *)

val create : ?metrics:Metrics_core.t -> Plan.t -> t
(** Fault counters are added into [metrics] when given (e.g. an
    epoch's cost accumulator), otherwise into a private table
    readable via {!metrics}. *)

val plan : t -> Plan.t
(** {!Plan.none} for a disabled injector. *)

type decision =
  | Deliver of { extra_delay : int; copies : int }
      (** Deliver [copies >= 1] copies, each sampling its own
          latency, all shifted by [extra_delay >= 0]. The no-fault
          verdict is [Deliver {extra_delay = 0; copies = 1}]. *)
  | Drop

val decide : t -> now:int -> src:Point.t option -> dst:Point.t -> decision
(** The verdict for one message at time [now]. Crashes of either
    endpoint and active cuts suppress the message; otherwise every
    matching rule draws its drop / duplicate / delay / reorder
    Bernoullis in plan order. Counters are incremented as a side
    effect. *)

val crashed : t -> now:int -> Point.t -> bool
(** Pure liveness query (no draws, no counters): is [id] inside an
    active crash window at [now]? The analytic layer uses it to
    refuse crashed members at solicitation time. *)

val severed : t -> now:int -> src:Point.t option -> dst:Point.t -> bool
(** Pure partition query (no draws, no counters): does an active cut
    separate the endpoints at [now]? An unknown ([None]) sender is
    never inside [side_a], so it always sits on the far side of the
    cut: client traffic into [side_a] is severed whether side B is
    explicit or the implicit "everyone else". *)

val search_lost : t -> bool
(** One Bernoulli at the plan's {!Plan.wildcard_drop} rate — the
    analytic layer's whole-search loss event (a lost request or
    response wave). Increments the injected and suppressed counters
    when it fires. Always [false] (and draw-free) when disabled. *)

val observe_heals : t -> now:int -> unit
(** Count each cut healed and each crash recovered by [now] into
    {!Metrics_core.fault_healed}, once per entry across the
    injector's lifetime. Callers invoke it at observation points
    (e.g. each epoch boundary, or end of a network run). A heal only
    counts for a fault that some query — [decide], [crashed],
    [severed], or an earlier [observe_heals] — observed inside its
    active window; a clock jumping straight past the window heals
    nothing. *)

val metrics : t -> Metrics_core.t
(** Where this injector accounts its counters. *)

(** {1 Substreams}

    The parallel epoch transition slices the new ring over domains
    and gives every slice a {!fork} of the transition's injector:
    same plan, same (read-only) side-index tables, but slice-local
    window-observation flags and slice-local counters, so domains
    share nothing mutable. Within a slice, {!reseed} re-keys the
    PRNG per logical actor (leader rank), making every actor's fault
    draws a pure function of (plan seed, actor key) — byte-identical
    at any domain count by construction. *)

val fork : t -> metrics:Metrics_core.t -> t
(** Slice-local view: fresh window-observation flags (all unseen),
    counters into [metrics], PRNG reset to the plan seed (callers
    {!reseed} per actor). Disabled injectors fork to themselves. *)

val reseed : t -> key:int64 -> unit
(** Re-key the private stream to
    [Prng.Rng.of_subkey plan.seed key]. No-op when disabled. *)

val merge_seen : into:t -> t -> unit
(** OR a fork's window-observation flags back into [into] (normally
    the fork's parent), entry by entry. Flags are monotone, so the
    merged result is independent of slicing and merge order; counters
    are merged separately by the caller
    ({!Metrics_core.merge}). [into] must come from the same plan. *)
