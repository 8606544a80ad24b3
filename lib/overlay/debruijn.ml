open Idspace

(* Image of a point under the halving maps: l (bit = 0) prepends a 0
   bit, r (bit = 1) prepends a 1 bit to the binary expansion. *)
let half_point ~bit p =
  let v = Point.to_u62 p in
  let shifted = Int64.shift_right_logical v 1 in
  let top = if bit then Int64.shift_left 1L 61 else 0L in
  Point.of_u62 (Int64.logor shifted top)

(* All ring members whose responsibility arc intersects the clockwise
   arc (from, until]: the members inside the arc plus suc(until). An
   arc with [from = until] is the image of an arc at most one key wide
   (halving drops the low bit) and holds no key, so only suc(until)
   covers it; reading it as the full ring would walk the ring
   forever. An arc can also hold every member (a wide image on a
   ring of two or three IDs), so the walk stops when it comes back to
   its first member. *)
let nodes_covering view ~from ~until =
  let acc = ref [ Ring.View.successor_exn view until ] in
  if not (Point.equal from until) then begin
    match Ring.View.strict_successor view from with
    | Some first ->
        let rec walk m =
          if Point.in_cw_range ~from ~until m then begin
            acc := m :: !acc;
            match Ring.View.strict_successor view m with
            | Some next when not (Point.equal next first) -> walk next
            | _ -> ()
          end
        in
        walk first
    | None -> ()
  end;
  List.sort_uniq Point.compare !acc

(* Images of an arc under one halving map. A wrapping arc is split at
   the top of the ring so each piece maps monotonically. *)
let arc_images ~bit ~from ~until =
  let top = Point.of_u62 (Int64.sub Point.modulus 1L) in
  let image (a, b) = (half_point ~bit a, half_point ~bit b) in
  if Point.compare from until < 0 || Point.equal from until then [ image (from, until) ]
  else [ image (from, top); image (Point.of_u62 0L, until) ]

let halving_steps n =
  let lg = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
  lg + 4

let neighbors_in view w =
  let pred = match Ring.View.predecessor view w with Some p -> p | None -> w in
  let succ = match Ring.View.strict_successor view w with Some s -> s | None -> w in
  (* Our responsibility arc is (pred, w]. *)
  let image_nodes =
    List.concat_map
      (fun bit ->
        List.concat_map
          (fun (a, b) -> nodes_covering view ~from:a ~until:b)
          (arc_images ~bit ~from:pred ~until:w))
      [ false; true ]
  in
  List.filter
    (fun u -> not (Point.equal u w))
    (List.sort_uniq Point.compare (pred :: succ :: image_nodes))

let rec make ring =
  let n = Ring.cardinal ring in
  if n = 0 then invalid_arg "Debruijn.make: empty ring";
  (* Rank-indexed neighbour memo (see {!Chord.make}). *)
  let memo : Point.t list option array = Array.make n None in
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
  let steps = halving_steps n in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      (* Phase 1: prepend the top [steps] bits of a point slightly
         counter-clockwise of the key (so phase 2 can only walk
         forwards into the responsible ID, never past it), most
         significant bit applied last. The continuous walk point and
         the ID responsible for it are tracked together. *)
      let slack = Int64.shift_left 1L (62 - steps) in
      let target = Point.add_cw key (Int64.sub Point.modulus (Int64.mul 2L slack)) in
      let key_bits = Point.to_u62 target in
      let continuous = ref src in
      let path = ref [ src ] in
      let current = ref src in
      for i = steps downto 1 do
        let bit = Int64.logand (Int64.shift_right_logical key_bits (62 - i)) 1L = 1L in
        continuous := half_point ~bit !continuous;
        let node = Ring.successor_exn ring !continuous in
        if not (Point.equal node !current) then begin
          path := node :: !path;
          current := node
        end
      done;
      (* Phase 2: the walk point now agrees with the key on its top
         [steps] bits, so the responsible ID is at most a couple of
         successor hops away. *)
      let guard = ref 0 in
      while (not (Point.equal !current resp)) && !guard <= n do
        incr guard;
        let next =
          match Ring.strict_successor ring !current with
          | Some s -> s
          | None -> assert false
        in
        path := next :: !path;
        current := next
      done;
      if !guard > n then failwith "Debruijn.route: successor walk failed";
      List.rev !path
    end
  in
  {
    Overlay_intf.name = "debruijn";
    ring;
    neighbors;
    route;
    max_hops = steps + 4;
    neighbors_in;
    rebuild = make;
  }
