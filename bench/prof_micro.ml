(* Micro-benchmark for the profiler's attribution paths. The two numbers
   bound what [Obs.Prof.note] can cost a synthesized interface: the fast
   path (same region as the previous call) and the switch path (a loop
   body straddling a region boundary, the ping-pong worst case). The
   bench harness's `overhead` section measures the same costs end to end;
   this isolates them when the end-to-end number needs explaining. *)

let () =
  let p = Obs.Prof.create () in
  let n = 50_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Obs.Prof.note p ~pc:(Int64.of_int (0x1000 + (i land 63))) ~instrs:1
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "note fast path: %.1f ns/call\n" (dt /. float_of_int n *. 1e9);
  let p2 = Obs.Prof.create () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Obs.Prof.note p2 ~pc:(Int64.of_int (0x1000 + ((i land 1) lsl 6))) ~instrs:1
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "note switch path: %.1f ns/call\n" (dt /. float_of_int n *. 1e9)
