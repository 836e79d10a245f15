type t = {
  name : string;
  icache_bytes : int;
  icache_line : int;
  icache_assoc : int;
  icache_miss_penalty : int;
  itlb_entries : int;
  itlb_miss_penalty : int;
  dtlb_entries : int;
  dtlb_miss_penalty : int;
  issue_cost : int;
  branch_cost : int;
  call_cost : int;
  load_cost : int;
  store_cost : int;
  mul_cost : int;
  div_cost : int;
  data_fault_penalty : int;
}

type os = {
  os_name : string;
  page_bytes : int;
  penalty_scale : float;
}

(* Costs are in "ticks" (quarter cycles): a simple scalar proxy for a
   wide out-of-order core.  Ordinary instructions issue at 4 ticks; taken
   branches, calls and returns are predicted and mostly hidden (1 tick) —
   the effect §VII-E3 relies on.  Miss penalties are also in ticks.

   Cache and TLB capacities are scaled down by roughly the ratio between
   the paper's production binaries (~100 MB) and our synthetic apps
   (~300 KB), so the footprint-to-cache pressure — the mechanism behind
   Figure 13's gains — is comparable. *)
let base =
  {
    name = "base";
    icache_bytes = 64 * 1024;
    icache_line = 64;
    icache_assoc = 4;
    icache_miss_penalty = 300;
    itlb_entries = 10;
    itlb_miss_penalty = 220;
    dtlb_entries = 24;
    dtlb_miss_penalty = 160;
    issue_cost = 4;
    branch_cost = 1;
    call_cost = 1;
    load_cost = 12;
    store_cost = 8;
    mul_cost = 12;
    div_cost = 48;
    data_fault_penalty = 100000;
  }

(* Older devices: smaller i-caches and TLBs, higher miss penalties — they
   benefit more from the reduced footprint, matching the bluer rows the
   paper sees on older hardware. *)
let devices =
  [
    { base with name = "iPhone7-class"; icache_bytes = 48 * 1024;
      icache_miss_penalty = 460; itlb_entries = 12; itlb_miss_penalty = 340;
      dtlb_entries = 12 };
    { base with name = "iPhone8-class"; icache_bytes = 48 * 1024;
      icache_miss_penalty = 190; itlb_entries = 32; itlb_miss_penalty = 144 };
    { base with name = "iPhoneX-class"; icache_bytes = 64 * 1024 };
    { base with name = "iPhoneXR-class"; icache_bytes = 96 * 1024;
      icache_miss_penalty = 260; itlb_entries = 14 };
    { base with name = "iPhone11-class"; icache_bytes = 128 * 1024;
      icache_miss_penalty = 220; itlb_entries = 20; itlb_miss_penalty = 170;
      dtlb_entries = 48 };
  ]

let oses =
  [
    { os_name = "12.4"; page_bytes = 16 * 1024; penalty_scale = 1.15 };
    { os_name = "13.3"; page_bytes = 16 * 1024; penalty_scale = 1.05 };
    { os_name = "13.5"; page_bytes = 16 * 1024; penalty_scale = 1.0 };
  ]

let default = { base with name = "iPhoneX-class" }
let default_os = { os_name = "13.5"; page_bytes = 16 * 1024; penalty_scale = 1.0 }

let find name =
  match List.find_opt (fun d -> d.name = name) devices with
  | Some d -> d
  | None -> invalid_arg ("Device.find: unknown device " ^ name)
