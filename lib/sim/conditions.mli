(** Unified runtime conditions: what the environment does to a run.

    Every layer that simulates real deployments used to take the same
    pair of optional arguments — [?faults:Faults.Plan.t] describing
    injected drops, partitions and crashes, and
    [?reliability:Reliability.Policy.t] describing the retry and
    backoff budget that masks them. The pair travelled together
    through {!Protocol.Network}, {!Protocol.Secure_search},
    [Tinygroups.Membership]/[Epoch] and the experiment registry; this
    record collapses it into one value with {!none} as the benign
    default.

    Digest neutrality is by construction: a [None] plan and a [None]
    policy are the tested zero anchors (zero-rate plan ≡ no plan,
    zero-budget policy ≡ no policy), and {!none} carries exactly
    those, so threading [Conditions.none] through a run draws nothing
    and counts nothing. *)

type t = {
  faults : Faults.Plan.t option;
      (** What the environment breaks. [None] = fault-free. *)
  reliability : Reliability.Policy.t option;
      (** What the endpoints spend to mask it. [None] = no retries. *)
}

val none : t
(** Benign conditions: no faults, no retry budget. *)

val make :
  ?faults:Faults.Plan.t -> ?reliability:Reliability.Policy.t -> unit -> t

val describe : t -> string
(** Human-readable one-liner, e.g. for table notes. *)

(** {1 Activated conditions}

    A plan/policy pair is immutable configuration; running under it
    requires stateful instances — a {!Faults.Injector.t} drawing from
    the plan's own seed and a {!Reliability.Tracker.t} holding
    circuit state. [active] carries those. Absent components stay
    [None] so that passing {!inert} is byte-identical to passing no
    injector and no tracker at all. *)

type active = {
  injector : Faults.Injector.t option;
  tracker : Reliability.Tracker.t option;
}

val inert : active
(** No injector, no tracker; immutable and freely shared. *)

val activate : ?metrics:Metrics.t -> t -> active
(** Instantiate the stateful layers for one run. Components that are
    [None] in [t] stay [None] in the result; present ones count into
    [metrics] when given. *)

val of_instances :
  ?injector:Faults.Injector.t -> ?tracker:Reliability.Tracker.t -> unit -> active
(** Wrap pre-built instances, e.g. ones whose lifetime spans several
    protocol calls (the epoch chain builds its injector once and
    reuses it across all membership traffic). *)

(** {1 Substreams}

    The parallel epoch transition forks one slice-local [active] per
    domain ({!fork}), re-keys it per logical actor as the slice walks
    its leaders ({!reseed}), and folds each slice back into the
    master in rank order ({!merge}) — see [Faults.Injector] and
    [Reliability.Tracker] for the per-component contracts that make
    the result independent of the slicing. *)

val fork : active -> metrics:Metrics.t -> active
(** Component-wise {!Faults.Injector.fork} /
    {!Reliability.Tracker.fork}; absent components stay [None]. *)

val reseed : active -> key:int64 -> unit
(** Component-wise {!Faults.Injector.reseed} /
    {!Reliability.Tracker.reseed}. *)

val merge : into:active -> active -> unit
(** Component-wise {!Faults.Injector.merge_seen} /
    {!Reliability.Tracker.merge_events}. Call once per fork, in slice
    rank order; counters are merged separately
    ({!Metrics_core.merge}). *)
