open Idspace

let neighbors_in view w =
  let pred = match Ring.View.predecessor view w with Some p -> p | None -> w in
  let succ = match Ring.View.strict_successor view w with Some s -> s | None -> w in
  List.filter (fun u -> not (Point.equal u w)) (List.sort_uniq Point.compare [ pred; succ ])

let rec make ring =
  let n = Ring.cardinal ring in
  if n = 0 then invalid_arg "Succ_ring.make: empty ring";
  let view = Ring.View.of_ring ring in
  let neighbors w = neighbors_in view w in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    let rec walk current acc hops =
      if Point.equal current resp then List.rev acc
      else if hops > n then failwith "Succ_ring.route: walked past every ID"
      else
        let next =
          match Ring.strict_successor ring current with
          | Some s -> s
          | None -> assert false
        in
        walk next (next :: acc) (hops + 1)
    in
    walk src [ src ] 0
  in
  {
    Overlay_intf.name = "succ-ring";
    ring;
    neighbors;
    route;
    max_hops = n;
    neighbors_in;
    rebuild = make;
  }
