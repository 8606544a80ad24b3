(** Shared builders and the parallel fan-out entry point for the
    experiment modules. *)

open Adversary

val build_tiny :
  Prng.Rng.t ->
  ?jobs:int ->
  ?params:Tinygroups.Params.t ->
  ?overlay:Tinygroups.Epoch.overlay_kind ->
  n:int ->
  beta:float ->
  unit ->
  Population.t * Tinygroups.Group_graph.t
(** One freshly generated population and its directly built
    tiny-group graph (member oracle ["h1"]). [?jobs] (default 1) fans
    the formation loop out ({!Tinygroups.Group_graph.build_direct});
    the result is identical at every value. *)

val build_sized :
  Prng.Rng.t ->
  ?jobs:int ->
  sizing:Tinygroups.Params.sizing ->
  n:int ->
  beta:float ->
  unit ->
  Population.t * Tinygroups.Group_graph.t
(** Same with an explicit sizing rule (baselines and sweeps). *)

val h1 : Hashing.Oracle.t
(** The deployment's member oracle, shared so graphs are comparable
    across experiments. *)

(** {1 Parallel trials}

    Every quantitative claim is an average over independent seeded
    runs, so experiments fan their trials (and independent
    configuration rows) out over a {!Parallel.Pool}. Both entry
    points return results in input order and derive one
    {!Parallel.Fanout} substream per item up front, which makes the
    output of any experiment identical for every [~jobs] value. *)

val run_trials : Prng.Rng.t -> jobs:int -> trials:int -> (Prng.Rng.t -> 'a) -> 'a list
(** [run_trials rng ~jobs ~trials f] runs [f] once per trial, each on
    its own substream, at most [jobs] at a time. *)

val map_configs : Prng.Rng.t -> jobs:int -> 'a list -> ('a -> Prng.Rng.t -> 'b) -> 'b list
(** [map_configs rng ~jobs configs f] is the config-sweep shape of
    {!run_trials}: one work item (and one substream) per
    configuration, e.g. per [(n, beta)] cell of a table. [f] must
    confine mutation to its substream and to values it builds
    itself; graphs handed in from outside must be warmed with
    {!warm_for_sharing} first. *)

val warm_for_sharing : Tinygroups.Group_graph.t -> unit
(** Force every lazily memoized structure reachable from searches on
    [g] (overlay neighbour tables, the blue-leader cache) so the
    graph can be shared read-only across domains. Chord's [route]
    reads the ring and no longer touches its neighbour memo, but
    Chord++ routing walks that memo, as do link checks, and a random
    blue start reads the blue-leader cache, so the warm-up is still
    required. *)
