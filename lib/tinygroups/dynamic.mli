(** Per-event joins and departures (paper §III-A, footnote 13:
    "a join or departure requires updating only poly(log n) links in
    a group graph").

    The epoch driver ({!Epoch}) rebuilds whole graphs; this module
    applies batches of events to a live graph (a single event is a
    one-element batch) and accounts their cost, which is the quantity
    footnote 13 bounds:

    {b Join} of ID [w]: solicit members for [G_w] through the old
    graphs ([O(lnln n)] dual searches), establish [L_w]
    ([O(|L_w|)] dual searches), and update every existing group whose
    linking rule now prefers [w] — for Chord the [O(log n)] groups
    whose finger target lands in the arc [w] captured.

    {b Departure} of ID [w]: the groups containing [w] drop a member
    (their health is recounted, the margin §III's [eps'] protects),
    the reverse-neighbour groups null their link to [G_w], and [G_w]
    itself persists in a passive role until expiry — modelled here by
    excising it together with its leader, since a single live graph
    has no "next epoch" to stay passive for.

    Costs are reported per event; experiment E18 checks the polylog
    shape. *)

open Idspace

type cost = {
  searches : int;  (** Routed searches performed. *)
  messages : int;  (** Their message total. *)
  affected_groups : int;
      (** Existing groups whose neighbour lists had to change. *)
  member_updates : int;
      (** Group memberships created or dissolved by the event. *)
}

val join_many :
  ?pow:Pow.Controller.t ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  Group_graph.t ->
  old_pair:Membership.old_pair ->
  member_oracle:Hashing.Oracle.t ->
  ids:(Point.t * bool) list ->
  Group_graph.t * cost
(** Admit a batch of [(id, bad)] newcomers; a single join is the
    one-element batch. Requests travel through [old_pair] exactly as
    in the epoch construction. Each newcomer's searches draw from a
    stream keyed on its identity ([Prng.Rng.of_subkey] of a base drawn
    from [rng] at the ID's turn).

    The batch is defined against the fold of one-element batches,
    which rebuilds the graph between events: the j-th newcomer
    solicits, links and is verified against a ring holding the first
    j-1, so the resulting graph and aggregate cost equal the fold's
    (pinned by a test). The batch gets there with one merged
    population pass, one overlay rebuild (counted under
    {!Sim.Metrics.overlay_rebuilds}, exactly one per non-empty batch)
    and one graph assembly: the growing ring is staged as an
    {!Idspace.Ring.View} (an O(k) insert, O(log n + log k) queries)
    and queried through the construction's memo-free [neighbors_in].
    The rebuild is the construction's own [rebuild], so parameters
    such as a Chord++ salt carry over, as they do in {!depart_many}.

    When a difficulty controller is passed via [?pow], every newcomer
    first pays the controller's current entrance price
    ({!Pow.Controller.note_admission}), in batch order: the fee lands
    in the controller's ledger and the [pow.*] metrics counters. The
    charge is PRNG-free, so omitting [?pow] reproduces the
    pre-controller behaviour byte-for-byte. Raises [Invalid_argument]
    on a present or duplicated ID; a rejected batch charges nothing. *)

val depart_many : Group_graph.t -> ids:Point.t list -> Group_graph.t * cost
(** Remove a batch of IDs; a single departure is the one-element
    batch. One merged ring pass and one overlay rebuild serve the
    whole batch. The resulting graph equals the fold of one-element
    batches over [ids] in order, which rebuilds the graph between
    events. The cost does not aggregate exactly like the fold's:
    - [affected_groups] is counted against the starting overlay
      rather than the k intermediate ones;
    - [member_updates] leaves out every drop from a group whose leader
      also departs in the batch, while the fold counts the drops that
      precede the leader's own departure (a known undercount).
    Raises [Invalid_argument] on an absent or duplicated ID. *)

val captured_by : Group_graph.t -> id:Point.t -> Point.t list
(** The existing leaders whose Chord-style linking rule would link to
    [id] once it joins (the reverse-neighbour set), as a join's
    [affected_groups] counts them; exposed for tests. *)
