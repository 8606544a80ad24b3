(* Immutable sorted-array snapshot of the ID population.

   Two parallel arrays: the points themselves (sorted ascending, so
   rank k is the k-th ID clockwise from 0) and their native-int keys.
   Every query is a binary search over the unboxed key array — no
   pointer chasing, no boxed comparisons — and [random_member] is one
   array index. Churn produces a fresh snapshot by merging (O(n)),
   which the per-event [Dynamic] costs already dominate. *)

type t = {
  pts : Point.t array;  (* sorted ascending, distinct *)
  keys : int array;  (* Point.to_key pts.(i), same order *)
}

let empty = { pts = [||]; keys = [||] }

let of_sorted_distinct pts = { pts; keys = Array.map Point.to_key pts }

let of_list ps =
  match List.sort_uniq Point.compare ps with
  | [] -> empty
  | ps -> of_sorted_distinct (Array.of_list ps)

let of_array ps = of_list (Array.to_list ps)

let cardinal t = Array.length t.pts

(* First index whose key is >= k; [Array.length keys] when none. *)
let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index whose key is > k. *)
let upper_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid <= k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem p t =
  let k = Point.to_key p in
  let i = lower_bound t.keys k in
  i < Array.length t.keys && Array.unsafe_get t.keys i = k

let add p t =
  let k = Point.to_key p in
  let n = Array.length t.pts in
  let i = lower_bound t.keys k in
  if i < n && t.keys.(i) = k then t
  else begin
    let pts = Array.make (n + 1) p and keys = Array.make (n + 1) k in
    Array.blit t.pts 0 pts 0 i;
    Array.blit t.keys 0 keys 0 i;
    Array.blit t.pts i pts (i + 1) (n - i);
    Array.blit t.keys i keys (i + 1) (n - i);
    { pts; keys }
  end

let remove p t =
  let k = Point.to_key p in
  let n = Array.length t.pts in
  let i = lower_bound t.keys k in
  if i >= n || t.keys.(i) <> k then t
  else if n = 1 then empty
  else
    {
      pts = Array.init (n - 1) (fun j -> t.pts.(if j < i then j else j + 1));
      keys = Array.init (n - 1) (fun j -> t.keys.(if j < i then j else j + 1));
    }

let add_batch ps t =
  match List.sort_uniq Point.compare ps with
  | [] -> t
  | ps ->
      let inc = Array.of_list ps in
      let m = Array.length inc and n = Array.length t.pts in
      let out = Array.make (n + m) inc.(0) in
      let i = ref 0 and j = ref 0 and o = ref 0 in
      let push p =
        out.(!o) <- p;
        incr o
      in
      while !i < n && !j < m do
        let c = Point.compare t.pts.(!i) inc.(!j) in
        if c < 0 then begin
          push t.pts.(!i);
          incr i
        end
        else if c > 0 then begin
          push inc.(!j);
          incr j
        end
        else begin
          push t.pts.(!i);
          incr i;
          incr j
        end
      done;
      while !i < n do
        push t.pts.(!i);
        incr i
      done;
      while !j < m do
        push inc.(!j);
        incr j
      done;
      if !o = n then t else of_sorted_distinct (Array.sub out 0 !o)

let remove_batch ps t =
  match List.sort_uniq Point.compare ps with
  | [] -> t
  | ps ->
      let gone = Array.of_list ps in
      let m = Array.length gone and n = Array.length t.pts in
      let out = Array.make n Point.zero in
      let j = ref 0 and o = ref 0 in
      for i = 0 to n - 1 do
        let p = t.pts.(i) in
        while !j < m && Point.compare gone.(!j) p < 0 do
          incr j
        done;
        if !j < m && Point.equal gone.(!j) p then incr j
        else begin
          out.(!o) <- p;
          incr o
        end
      done;
      if !o = n then t
      else if !o = 0 then empty
      else of_sorted_distinct (Array.sub out 0 !o)

let successor t x =
  let n = Array.length t.pts in
  if n = 0 then None
  else
    let i = lower_bound t.keys (Point.to_key x) in
    Some (Array.unsafe_get t.pts (if i = n then 0 else i))

let successor_exn t x =
  let n = Array.length t.pts in
  if n = 0 then raise Not_found;
  let i = lower_bound t.keys (Point.to_key x) in
  Array.unsafe_get t.pts (if i = n then 0 else i)

let strict_successor t x =
  let n = Array.length t.pts in
  if n = 0 then None
  else
    let i = upper_bound t.keys (Point.to_key x) in
    Some (Array.unsafe_get t.pts (if i = n then 0 else i))

let strict_successor_exn t x =
  let n = Array.length t.pts in
  if n = 0 then raise Not_found;
  let i = upper_bound t.keys (Point.to_key x) in
  Array.unsafe_get t.pts (if i = n then 0 else i)

let predecessor t x =
  let n = Array.length t.pts in
  if n = 0 then None
  else
    (* Elements strictly below x occupy [0, lower_bound x). *)
    let i = lower_bound t.keys (Point.to_key x) in
    Some (Array.unsafe_get t.pts (if i = 0 then n - 1 else i - 1))

let responsibility t id =
  if not (mem id t) then None
  else
    match predecessor t id with
    | None -> None
    | Some p ->
        if Point.equal p id then Some Interval.full
        else Some (Interval.make ~from:p ~until:id)

let nth t i = t.pts.(i)

let rank t p =
  let k = Point.to_key p in
  let i = lower_bound t.keys k in
  if i < Array.length t.keys && Array.unsafe_get t.keys i = k then i else -1

let successor_rank t k =
  let n = Array.length t.keys in
  if n = 0 then raise Not_found;
  let i = lower_bound t.keys k in
  if i = n then 0 else i

let to_sorted_array t = Array.copy t.pts

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.pts - 1 do
    acc := f (Array.unsafe_get t.pts i) !acc
  done;
  !acc

let iter f t = Array.iter f t.pts

(* A staged view: the base snapshot plus a small sorted buffer of
   pending inserts, disjoint from the base. Every query runs one binary
   search over each array and keeps the candidate nearer clockwise, so
   the buffer costs O(log k) on top of the base's O(log n); inserting
   copies only the buffer. *)
module View = struct
  type ring = t

  type nonrec t = {
    base : ring;
    pts : Point.t array;  (* pending inserts, sorted ascending, distinct *)
    keys : int array;  (* Point.to_key pts.(i), same order *)
  }

  let of_ring base = { base; pts = [||]; keys = [||] }
  let cardinal v = Array.length v.base.pts + Array.length v.pts

  let mem p v =
    mem p v.base
    ||
    let k = Point.to_key p in
    let j = lower_bound v.keys k in
    j < Array.length v.keys && Array.unsafe_get v.keys j = k

  let add p v =
    if mem p v then v
    else begin
      let k = Point.to_key p in
      let m = Array.length v.pts in
      let j = lower_bound v.keys k in
      let pts = Array.make (m + 1) p and keys = Array.make (m + 1) k in
      Array.blit v.pts 0 pts 0 j;
      Array.blit v.keys 0 keys 0 j;
      Array.blit v.pts j pts (j + 1) (m - j);
      Array.blit v.keys j keys (j + 1) (m - j);
      { v with pts; keys }
    end

  (* The smaller-keyed of base index [i] and buffer index [j], each
     possibly out of range (= its array length). When both are out of
     range the query wrapped: the answer is the smallest key overall. *)
  let first_of v i j =
    let b = v.base in
    let n = Array.length b.keys and m = Array.length v.keys in
    if i < n then
      if j < m && Array.unsafe_get v.keys j < Array.unsafe_get b.keys i then
        Array.unsafe_get v.pts j
      else Array.unsafe_get b.pts i
    else if j < m then Array.unsafe_get v.pts j
    else if m = 0 then Array.unsafe_get b.pts 0
    else if n = 0 || Array.unsafe_get v.keys 0 < Array.unsafe_get b.keys 0 then
      Array.unsafe_get v.pts 0
    else Array.unsafe_get b.pts 0

  (* Mirror image of [first_of]: the larger-keyed of base index [i - 1]
     and buffer index [j - 1], wrapping to the largest key overall. *)
  let last_below v i j =
    let b = v.base in
    let n = Array.length b.keys and m = Array.length v.keys in
    if i > 0 then
      if j > 0 && Array.unsafe_get v.keys (j - 1) > Array.unsafe_get b.keys (i - 1)
      then Array.unsafe_get v.pts (j - 1)
      else Array.unsafe_get b.pts (i - 1)
    else if j > 0 then Array.unsafe_get v.pts (j - 1)
    else if m = 0 then Array.unsafe_get b.pts (n - 1)
    else if n = 0 || Array.unsafe_get v.keys (m - 1) > Array.unsafe_get b.keys (n - 1)
    then Array.unsafe_get v.pts (m - 1)
    else Array.unsafe_get b.pts (n - 1)

  let successor_key v k =
    if cardinal v = 0 then raise Not_found;
    first_of v (lower_bound v.base.keys k) (lower_bound v.keys k)

  let strict_successor_key v k =
    if cardinal v = 0 then raise Not_found;
    first_of v (upper_bound v.base.keys k) (upper_bound v.keys k)

  let successor_exn v x = successor_key v (Point.to_key x)

  let strict_successor v x =
    if cardinal v = 0 then None else Some (strict_successor_key v (Point.to_key x))

  let predecessor v x =
    if cardinal v = 0 then None
    else
      let k = Point.to_key x in
      Some (last_below v (lower_bound v.base.keys k) (lower_bound v.keys k))

  let to_ring v = add_batch (Array.to_list v.pts) v.base
end

let random_member rng t =
  let n = Array.length t.pts in
  if n = 0 then invalid_arg "Ring.random_member: empty ring";
  t.pts.(Prng.Rng.int rng n)

let populate rng n =
  if n = 0 then empty
  else begin
    (* Same draw sequence as the historical Set-based accumulator: a
       colliding draw is rejected against the points accepted so far
       and redrawn. *)
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n Point.zero in
    let filled = ref 0 in
    while !filled < n do
      let p = Point.random rng in
      let k = Point.to_key p in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        out.(!filled) <- p;
        incr filled
      end
    done;
    Array.sort Point.compare out;
    of_sorted_distinct out
  end
