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

let rec make ring =
  if Ring.cardinal ring = 0 then invalid_arg "Chord.make: empty ring";
  (* Neighbour memo indexed by ring rank — a flat array instead of a
     boxed-int64 hash table. Off-ring queries (rare; e.g. a probe for
     an ID mid-join) compute uncached. *)
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
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      (* Clockwise distances fit in a native int (u62), so the whole
         greedy step runs on unboxed arithmetic: [(b - a) land
         key_mask] is [distance_cw a b] even when the subtraction
         wraps negative. *)
      let kkey = Point.to_key key in
      let rec go current acc hops =
        if hops > hard_bound then failwith "Chord.route: hop bound exceeded"
        else begin
          let scur =
            match Ring.strict_successor ring current with
            | Some s -> s
            | None -> assert false
          in
          let kcur = Point.to_key current in
          let arc = (Point.to_key scur - kcur) land Point.key_mask in
          let dkey = (kkey - kcur) land Point.key_mask in
          if arc = 0 || (dkey > 0 && dkey <= arc) then
            (* key lands in (current, successor]: successor is
               responsible; final hop. *)
            List.rev (scur :: acc)
          else begin
            (* Closest preceding finger: the neighbour farthest
               clockwise that does not reach the key. [0 < d < dkey]
               subsumes the seed's range/inequality checks; strictly
               greater [d] replaces, so ties keep the earlier
               neighbour, exactly as before. *)
            let best_u = ref current and best_d = ref (-1) in
            List.iter
              (fun u ->
                let d = (Point.to_key u - kcur) land Point.key_mask in
                if d > 0 && d < dkey && d > !best_d then begin
                  best_u := u;
                  best_d := d
                end)
              (neighbors current);
            let next = if !best_d >= 0 then !best_u else scur in
            go next (next :: acc) (hops + 1)
          end
        end
      in
      go src [ src ] 0
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
