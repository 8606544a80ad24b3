(** The group graph [G] (paper §II-A): one group per ID, wired by the
    topology of the input graph [H].

    Vertices are groups [G_w], one per ID [w] of the population; edges
    mirror [H]'s links ([G_u] is a neighbour of [G_w] iff [u] is a
    neighbour of [w] in [H]). A group is {b blue} when it is good
    {e and} its neighbour set was established correctly, {b red}
    otherwise (S1–S3). The adversary owns every red group.

    Representation: the graph is flat and aligned to the population's
    sorted ring — a [Group.t array] indexed by ring rank, rank-indexed
    confused/suspect bitmaps, and a linear-probing open-addressing
    table over unboxed u62 keys for leader lookup. No boxed [int64]
    keys anywhere on the hot path.

    Two constructors exist:
    - {!build_direct} wires members straight from the hash oracle and
      the true ring — the static case of §II and the assumed-correct
      initial graphs [G⁰] of §III-A;
    - {!assemble} accepts externally formed groups and an explicit
      confused set — used by the epoch protocol (§III), where
      membership travels through searches in the old graphs and can
      therefore be corrupted. *)

open Idspace
open Adversary

type color = Blue | Red

type t

val params : t -> Params.t
val population : t -> Population.t
val overlay : t -> Overlay.Overlay_intf.t

(** Incremental group formation sharing one scratch buffer across
    groups: member draws land as successor {e ranks} in a reusable
    int array, are sorted and deduplicated in place, and only the
    final member array is allocated. {!build_direct}, the benches and
    the join protocol's draw estimate all route through this — there
    is exactly one member-draw code path. *)
module Builder : sig
  type b

  val create :
    params:Params.t ->
    population:Population.t ->
    member_oracle:Hashing.Oracle.t ->
    b

  val draw_members : b -> Point.t -> Point.t list
  (** The successors of [oracle(w, i)], [i = 1 .. draws], in draw
      order (duplicates included), where [draws] comes from [w]'s
      decentralised [ln ln n] estimate — exactly the multiset
      {!form_group} builds its member set from. *)

  val form_group : b -> Point.t -> Group.t
end

val draw_members :
  params:Params.t ->
  population:Population.t ->
  member_oracle:Hashing.Oracle.t ->
  Point.t ->
  Point.t list
(** One-shot {!Builder.draw_members} for callers without a builder. *)

val build_direct :
  ?jobs:int ->
  params:Params.t ->
  population:Population.t ->
  overlay:Overlay.Overlay_intf.t ->
  member_oracle:Hashing.Oracle.t ->
  unit ->
  t
(** Form [G_w] for every ID [w] with members
    [suc(oracle(w, i))], [i = 1 .. draws], where [draws] comes from
    [w]'s decentralised [ln ln n] estimate. The overlay must be built
    over [population]'s ring.

    [?jobs] (default 1) fans the formation loop over that many
    domains of a {!Parallel.Pool} with a deterministic rank-split:
    the rank space is cut into [jobs] contiguous slices fixed before
    any work is scheduled, each slice runs its own {!Builder}, and
    the slices are concatenated in rank order. Every group is a pure
    function of (ring, oracle, rank), so the result is byte-identical
    at every [jobs] — pinned by a test at jobs [1] vs [4]. *)

val assemble :
  params:Params.t ->
  population:Population.t ->
  overlay:Overlay.Overlay_intf.t ->
  groups:(Point.t * Group.t) list ->
  confused:Point.t list ->
  ?suspect:Point.t list ->
  unit ->
  t
(** Wrap externally constructed groups (epoch protocol). [groups]
    must contain exactly one entry per ID of the population.
    [?suspect] (default none) lists leaders whose links the
    reliability layer gave up on — degraded, not poisoned. *)

val equal : t -> t -> bool
(** Structural equality: same leaders in rank order, identical member
    sets, ground-truth labels and health per group, identical
    confused/suspect bitmaps. The gate behind every jobs-invariance
    assertion — the parallel build and transition paths must produce
    a graph [equal] to the sequential one. Params, population and
    overlay identity are {e not} compared. *)

val group_of : t -> Point.t -> Group.t
(** @raise Not_found for a point that is not a leader. *)

val color_of : t -> Point.t -> color
(** Red iff the group is not {!Group.Good} or its leader is
    confused — the conservative classification of §II. *)

val is_suspect : t -> Point.t -> bool
(** Suspect routes degrade the group without making it red; see
    {!assemble}. *)

val hijacked : t -> Point.t -> bool
(** The group has lost its good majority (or is confused): the
    physical notion of adversary control. *)

val mark_confused : t -> Point.t -> unit
(** Flag a leader as confused after construction (fault injection,
    diagnosed link corruption). Invalidates the blue-leader cache.
    @raise Invalid_argument if the point is not a leader. *)

val mark_suspect : t -> Point.t -> unit
(** Flag a leader's routes as retry-exhausted after construction.
    Invalidates the blue-leader cache.
    @raise Invalid_argument if the point is not a leader. *)

val leaders : t -> Point.t array
(** All leaders, i.e. the population's IDs. *)

val n_groups : t -> int

val confused_leaders : t -> Point.t list
(** The confused leaders, ascending by ring position. *)

val iter_groups : (Point.t -> Group.t -> unit) -> t -> unit
(** Visit every (leader, group) pair in {e ring order} — ascending
    ring rank, i.e. the order of {!leaders}. The order is part of the
    golden-digest contract: order-sensitive sweeps (PRNG-consuming
    trials, float accumulations, first-k picks) consume it, and a
    qcheck case pins it to {!leaders}. *)

val fold_groups : (Point.t -> Group.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in the same ring order as {!iter_groups}. *)

type census = {
  total : int;
  good : int;
  weak : int;
  hijacked_ : int;
  confused_ : int;  (** Confused leaders (possibly also unhealthy). *)
  suspect_ : int;
      (** Leaders with retry-exhausted (suspect) routes — degraded
          but not red. *)
  red : int;  (** Not good or confused: the paper's red count. *)
}

val census : t -> census

val fraction_red : t -> float

val blue_leaders : t -> Point.t array
(** All blue-group leaders in ascending ring order (memoised;
    invalidated by {!mark_confused} and {!mark_suspect}). Sweeps
    index the array with raw PRNG draws, so the layout is
    digest-relevant. Callers must not mutate the array. *)

val random_blue_leader : Prng.Rng.t -> t -> Point.t option
(** A uniform blue-group leader; [None] if every group is red. *)

val mean_group_size : t -> float

val groups_per_id : t -> (Point.t, int) Hashtbl.t
(** How many groups each ID belongs to (Lemma 10's state audit);
    IDs in no group are absent from the table. *)
