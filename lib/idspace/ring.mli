(** The population of IDs on the unit ring, with successor queries.

    [suc(x)] — the first ID at or clockwise of a point [x] — is the
    primitive every construction in the paper builds on: key
    responsibility (P2), group membership draws [suc(h1(w,i))]
    (§III-A), and Chord-style finger targets. Backed by an immutable
    sorted array with an unboxed native-int key mirror: queries are
    cache-friendly binary searches, {!random_member} and {!nth} are
    O(1), and churn merges batches in O(n). *)

type t
(** An immutable snapshot of the ID population. *)

val empty : t

val of_list : Point.t list -> t
val of_array : Point.t array -> t

val add : Point.t -> t -> t
val remove : Point.t -> t -> t
(** Single-point churn; O(n) snapshot copy. Adding a present point or
    removing an absent one returns the ring unchanged. *)

val add_batch : Point.t list -> t -> t
(** [add_batch ps t] merges all of [ps] in one O(n + |ps| log |ps|)
    pass — the churn-batch form of k× {!add}. Duplicates (within
    [ps] or against [t]) are absorbed. *)

val remove_batch : Point.t list -> t -> t
(** One-pass counterpart of k× {!remove}. *)

val mem : Point.t -> t -> bool

val cardinal : t -> int

val successor : t -> Point.t -> Point.t option
(** [successor t x] is the first ID encountered at [x] or moving
    clockwise from [x] (i.e. [suc(x)], which may be [x] itself when
    [x] is an ID). [None] iff the ring is empty. *)

val successor_exn : t -> Point.t -> Point.t
(** @raise Not_found when empty. *)

val strict_successor : t -> Point.t -> Point.t option
(** First ID strictly clockwise of [x]; wraps around. With one ID [p],
    [strict_successor t p = Some p]. *)

val strict_successor_exn : t -> Point.t -> Point.t
(** Allocation-free {!strict_successor}.
    @raise Not_found when empty. *)

val predecessor : t -> Point.t -> Point.t option
(** First ID strictly counter-clockwise of [x]; wraps around. *)

val responsibility : t -> Point.t -> Interval.t option
(** [responsibility t id] is the arc of keys whose successor is [id]
    (the arc (pred(id), id]); requires [id] to be in the ring.
    [None] if [id] is absent. With a single ID the arc is the whole
    ring. *)

val nth : t -> int -> Point.t
(** The ID at sorted position [i] (its {e rank}), O(1). Ranks are
    stable for a given snapshot: [nth t (rank t p) = p]. *)

val rank : t -> Point.t -> int
(** Sorted position of an ID, or [-1] when absent. *)

val successor_rank : t -> int -> int
(** [successor_rank t k] is the rank of [suc(x)] for the point whose
    native key ({!Point.to_key}) is [k] — the unboxed successor query
    used by the group builder.
    @raise Not_found when empty. *)

val to_sorted_array : t -> Point.t array
(** All IDs in increasing ring position (a fresh array). *)

val fold : (Point.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Point.t -> unit) -> t -> unit
(** Ascending ring position, like the sorted array. *)

(** A staged ring: a base snapshot plus a small sorted buffer of
    pending inserts. A churn batch of [k] joins that replays each
    newcomer against the ring holding the earlier ones uses a view
    instead of [k] {!add} copies: each insert costs O(k), each query
    O(log n + log k), and the batch ends with one O(n + k)
    {!add_batch} merge ({!View.to_ring}). A plain ring is a view with
    an empty buffer ({!View.of_ring}, O(1)), so a neighbour rule
    written against the view serves both. Queries answer exactly like
    the same functions on the ring the view stands for; the plain
    {!t} queries above are unchanged and pay nothing for it. *)
module View : sig
  type ring := t
  type t

  val of_ring : ring -> t

  val to_ring : t -> ring
  (** The ring the view stands for: the base itself when nothing is
      pending, else one {!add_batch} merge. *)

  val add : Point.t -> t -> t
  (** Stage one insert; O(k) buffer copy. A present point returns the
      view unchanged. *)

  val mem : Point.t -> t -> bool
  val cardinal : t -> int

  val successor_exn : t -> Point.t -> Point.t
  (** @raise Not_found when empty. *)

  val strict_successor : t -> Point.t -> Point.t option
  val predecessor : t -> Point.t -> Point.t option

  val successor_key : t -> int -> Point.t
  (** {!successor_exn} for the point whose native key
      ({!Point.to_key}) is [k]; no boxed argument.
      @raise Not_found when empty. *)

  val strict_successor_key : t -> int -> Point.t
  (** {!strict_successor} on a native key, unwrapped.
      @raise Not_found when empty. *)
end

val random_member : Prng.Rng.t -> t -> Point.t
(** Uniform member of a non-empty ring: one PRNG draw, one array
    index. *)

val populate : Prng.Rng.t -> int -> t
(** [populate rng n] is a ring of [n] independent uniform IDs (the
    paper's u.a.r. placement). Collisions are redrawn, matching the
    continuous model where they are measure-zero. *)
