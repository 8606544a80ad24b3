(* In-memory spans recorded by the benchmark around its own calls into
   the library: name, start, end, parent span and the workload op or
   batch the span belongs to. Nothing is recorded while tracing is
   off, so the untraced run pays one branch per boundary. Spans are
   written out once, when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable on : bool;
  cap : int;
  mutable len : int;
  mutable dropped : int;
  names : string array;
  start : int array;
  stop : int array;
  parent : int array;
  op : int array;
}

let create ~cap =
  {
    on = false;
    cap;
    len = 0;
    dropped = 0;
    names = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap (-1);
  }

let set_tracing t on = t.on <- on
let tracing t = t.on
let count t = t.len
let dropped t = t.dropped

(* [enter] returns the new span's id, or -1 when tracing is off or the
   buffer is full; [leave] ignores -1. *)
let enter t ?(parent = -1) ?(op = -1) name =
  if not t.on then -1
  else if t.len = t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let id = t.len in
    t.len <- id + 1;
    t.names.(id) <- name;
    t.parent.(id) <- parent;
    t.op.(id) <- op;
    t.start.(id) <- now_ns ();
    id
  end

let leave t id = if id >= 0 then t.stop.(id) <- now_ns ()

let with_span t name f =
  let id = enter t name in
  Fun.protect ~finally:(fun () -> leave t id) f

let write t path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,op\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i t.names.(i) t.start.(i) t.stop.(i)
      t.parent.(i) t.op.(i)
  done;
  close_out oc
