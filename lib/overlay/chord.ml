open Idspace

(* The fingers [suc(w + 2^j)], j = 0..61, over a (staged) ring. Every
   stride 2^j at or below the gap from [w] to its strict successor [s]
   lands in (w, s], whose successor is [s], so [s] stands for all of
   them and only the strides above the gap need a search: about
   log2(2^62 / gap) of them, ~17 at n = 2^16 instead of 62. The
   targets are native keys ([(kw + 2^j) land key_mask] is
   [Point.add_cw w 2^j]), so no search boxes its argument. *)
let fingers_in view w =
  let kw = Point.to_key w in
  let s = Ring.View.strict_successor_key view kw in
  (* [s = w] only on a singleton ring holding [w]: every finger is [w]. *)
  if Point.equal s w then []
  else begin
    let gap = (Point.to_key s - kw) land Point.key_mask in
    (* Collected from high stride to low; consecutive-dedup removes
       most duplicates, the final sort the rest. *)
    let acc = ref [ s ] in
    let j = ref 61 in
    while 1 lsl !j > gap do
      let f = Ring.View.successor_key view ((kw + (1 lsl !j)) land Point.key_mask) in
      (if not (Point.equal f w) then
         match !acc with
         | prev :: _ when Point.equal prev f -> ()
         | _ -> acc := f :: !acc);
      decr j
    done;
    List.sort_uniq Point.compare !acc
  end

let fingers ring w = fingers_in (Ring.View.of_ring ring) w

let neighbors_in view w =
  let base = fingers_in view w in
  match Ring.View.predecessor view w with
  | Some p when not (Point.equal p w) -> List.sort_uniq Point.compare (p :: base)
  | _ -> base

let neighbors_of ring w = neighbors_in (Ring.View.of_ring ring) w

(* The highest [j' <= j] with [2^j' < d], or -1. *)
let rec stride_below d j = if j >= 0 && 1 lsl j >= d then stride_below d (j - 1) else j

let rec make ring =
  if Ring.cardinal ring = 0 then invalid_arg "Chord.make: empty ring";
  (* Neighbour memo indexed by ring rank — a flat array instead of a
     boxed-int64 hash table. It serves [neighbors] alone (link checks,
     Chord++'s walk, reverse-link filters); [route] below reads the
     ring. Off-ring queries (rare; e.g. a probe for an ID mid-join)
     compute uncached. *)
  let memo : Point.t list option array = Array.make (Ring.cardinal ring) None in
  let view = Ring.View.of_ring ring in
  let neighbors w =
    let r = Ring.rank ring w in
    if r < 0 then neighbors_in view w
    else
      match memo.(r) with
      | Some ns -> ns
      | None ->
          let ns = neighbors_in view w in
          memo.(r) <- Some ns;
          ns
  in
  let n = Ring.cardinal ring in
  let max_hops =
    let lg = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
    (2 * lg) + 8
  in
  (* Greedy progress strictly decreases the clockwise distance to the
     key, so [n] hops is a hard correctness bound; [max_hops] is the
     expected O(log n) diagnostic. *)
  let hard_bound = n + 1 in
  (* The greedy closest-preceding-finger walk, read straight off the
     ring. Clockwise distances
     fit in a native int (u62): [(b - a) land key_mask] is
     [distance_cw a b] even when the subtraction wraps negative.

     A hop is carried as its key [kcur] and [sr], the rank of
     [suc(kcur)]: its own rank when [is_id], else the rank of its
     strict successor. Successor and predecessor are then ranks
     [sr + 1] (or [sr]) and [sr - 1], with no search. Of [S_cur], the
     predecessor is the ID farthest clockwise, so it wins whenever it
     does not reach the key. The finger distances
     [d(cur, suc(cur + 2^j))] never decrease as [j] grows below the
     key (a finger wraps past [cur] only once its stride passes the
     responsible ID), so the closest preceding finger is the first
     one, scanning down from the highest stride under [dkey], that
     falls short of the key; strides at or below the successor gap
     all land on the successor, the fallback. About one search per
     hop. The path is the neighbour-list walk's, hop for hop. *)
  let key_at r = Point.to_key (Ring.nth ring r) in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      let kkey = Point.to_key key in
      (* [top] is the highest stride under the previous hop's [dkey];
         [dkey] only shrinks along the path, so each hop resumes the
         count-down there. *)
      let rec go kcur sr is_id top acc hops =
        if hops > hard_bound then failwith "Chord.route: hop bound exceeded"
        else begin
          let srank = if is_id then (sr + 1) mod n else sr in
          let arc = (key_at srank - kcur) land Point.key_mask in
          let dkey = (kkey - kcur) land Point.key_mask in
          if arc = 0 || (dkey > 0 && dkey <= arc) then
            (* key lands in (current, successor]: successor is
               responsible; final hop. *)
            List.rev (Ring.nth ring srank :: acc)
          else begin
            let top = stride_below dkey top in
            let prank = (sr + n - 1) mod n in
            let dp = (key_at prank - kcur) land Point.key_mask in
            let next =
              if dp < dkey then prank
              else begin
                let j = ref top in
                let found = ref (-1) in
                while !found < 0 && !j >= 0 && 1 lsl !j > arc do
                  let fr = Ring.successor_rank ring ((kcur + (1 lsl !j)) land Point.key_mask) in
                  let d = (key_at fr - kcur) land Point.key_mask in
                  if d < dkey then found := fr else decr j
                done;
                if !found >= 0 then !found else srank
              end
            in
            let p = Ring.nth ring next in
            go (Point.to_key p) next true top (p :: acc) (hops + 1)
          end
        end
      in
      let ksrc = Point.to_key src in
      let sr = Ring.successor_rank ring ksrc in
      go ksrc sr (key_at sr = ksrc) 61 [ src ] 0
    end
  in
  {
    Overlay_intf.name = "chord";
    ring;
    neighbors;
    route;
    max_hops;
    neighbors_in;
    rebuild = make;
  }
