(** Plain successor ring: each ID links only to its ring predecessor
    and successor, and searches walk clockwise.

    Violates P1's [O(log N)] search length (paths are [Θ(N)]), so it
    is {e not} a valid input graph for the construction at scale — it
    serves as the degenerate baseline ("groups of a single link") and
    as a tiny, fully-inspectable topology for tests and examples. *)

open Idspace

val make : Ring.t -> Overlay_intf.t
