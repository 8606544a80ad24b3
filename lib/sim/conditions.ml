type t = {
  faults : Faults.Plan.t option;
  reliability : Reliability.Policy.t option;
}

let none = { faults = None; reliability = None }
let make ?faults ?reliability () = { faults; reliability }

let describe t =
  match (t.faults, t.reliability) with
  | None, None -> "benign"
  | Some p, None -> Faults.Plan.describe p
  | None, Some r -> Reliability.Policy.describe r
  | Some p, Some r ->
      Printf.sprintf "%s; %s" (Faults.Plan.describe p)
        (Reliability.Policy.describe r)

type active = {
  injector : Faults.Injector.t option;
  tracker : Reliability.Tracker.t option;
}

let inert = { injector = None; tracker = None }

let activate ?metrics t =
  {
    injector = Option.map (fun p -> Faults.Injector.create ?metrics p) t.faults;
    tracker =
      Option.map (fun p -> Reliability.Tracker.create ?metrics p) t.reliability;
  }

let of_instances ?injector ?tracker () = { injector; tracker }

let fork a ~metrics =
  {
    injector = Option.map (fun i -> Faults.Injector.fork i ~metrics) a.injector;
    tracker = Option.map (fun t -> Reliability.Tracker.fork t ~metrics) a.tracker;
  }

let reseed a ~key =
  Option.iter (fun i -> Faults.Injector.reseed i ~key) a.injector;
  Option.iter (fun t -> Reliability.Tracker.reseed t ~key) a.tracker

let merge ~into a =
  (match (into.injector, a.injector) with
  | Some dst, Some src -> Faults.Injector.merge_seen ~into:dst src
  | _ -> ());
  match (into.tracker, a.tracker) with
  | Some dst, Some src -> Reliability.Tracker.merge_events ~into:dst src
  | _ -> ()
