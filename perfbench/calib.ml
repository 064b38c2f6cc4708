(* A host speed probe.  On the shared host, the same code can run up to
   1.9 times slower for a minute or more while other tenants load the
   machine.  The process doing the work therefore also times this fixed
   computation: a car drive between its slices, the daemon every 100 ms.
   CPU-bound timings are scaled by [reference_us] over the kernel's median
   time in that process: they read as on a host where the kernel takes
   [reference_us].  The kernel is the benchmark's own code, but it
   allocates on the working process's heap; timed in a process of its
   own, it did not follow the slowdowns.  A change to that heap can
   therefore move it too: compare [host.kernel_us] between commits. *)

(* About the kernel's time on the development host (2 vCPUs of a
   2.1 GHz virtual machine) when it is not loaded. *)
let reference_us = 85.0

(* Allocation, hashing and list traversal, like the code under test. *)
let kernel () =
  let h = Hashtbl.create 64 in
  let l = ref [] in
  for i = 0 to 1999 do
    Hashtbl.replace h (i land 255) i;
    l := (i, float_of_int i *. 1.5) :: !l
  done;
  Sys.opaque_identity
    (List.fold_left (fun a (i, f) -> a + i + int_of_float f) 0 !l
    + Hashtbl.length h)

let time_ns () =
  let t0 = Util.now_ns () in
  ignore (kernel ());
  Util.now_ns () - t0

(* The factor that scales a run's timings, from the kernel's median
   time (µs) in that run. *)
let scale median_us = reference_us /. median_us

(* The same for the car's set-up, which starts a process: the kernel,
   timed in a warm process, slowed less than set-up in slow spells.
   Before each drive, a start-up probe launches a fresh process that
   builds this fixed structure (a little quicker than building the car),
   timed from launch until it is built.  The car's [setup_s] is scaled
   by [startup_reference_ms] over the probe's median in the run. *)
let startup_reference_ms = 3.0

let build () =
  let h = Hashtbl.create 16 in
  for i = 0 to 9_999 do
    Hashtbl.replace h i (Array.make 8 (float_of_int i))
  done;
  Sys.opaque_identity (Hashtbl.length h)
