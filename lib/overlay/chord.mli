(** Chord input graph (Stoica et al., SIGCOMM 2001).

    Each ID [w] links to its ring predecessor, its ring successor, and
    the fingers [suc(w + 2^j)] for every bit position [j] of the ID
    space — the exponentially increasing distances of the paper's
    footnote 11. Degree and search length are [O(log N)]; congestion is
    [O(log N / N)] w.h.p. Routing is greedy closest-preceding-finger.

    [route] reads the ring directly: per hop, the predecessor and
    successor sit at the hop's rank [-1]/[+1], and the closest
    preceding finger is the first stride, scanning down from the key's
    distance, whose successor falls short of the key — about one
    successor search per hop, no neighbour list. Its paths are those
    of the greedy walk over [neighbors] (pinned by a test).

    Neighbour lists are memoised lazily, for [neighbors] alone (link
    checks, Chord++ routing, reverse-link filters): a view that is
    only routed over never fills the memo. *)

open Idspace

val make : Ring.t -> Overlay_intf.t
(** Build the Chord view of a non-empty ring. *)

val fingers : Ring.t -> Point.t -> Point.t list
(** The raw finger list of one ID (deduplicated, excludes the ID
    itself); exposed for tests. Cost: one strict-successor search,
    then one search per stride [2^j] above the gap [g] to that
    successor, [62 - floor(log2 g)] searches in all (about 17 at
    [N = 2^16]) instead of one per stride: every stride at or below
    the gap lands on the successor. *)

val neighbors_of : Ring.t -> Point.t -> Point.t list
(** One ID's neighbour list (fingers plus ring predecessor), computed
    directly against [ring] with no memo — value-identical to what a
    {!make} view answers. The view's [neighbors_in] is the same rule
    over a staged ring ({!Ring.View}); {!make}'s memo fills through
    it too, so there is one implementation. Same cost as {!fingers},
    plus a predecessor search. *)
