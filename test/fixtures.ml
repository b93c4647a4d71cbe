(* A shared test world: the paper's hospital scenario in miniature.

   Roles:
     bootstrap            — initial, condition-free (installer trapdoor)
     hr_admin(a)          — initial, via is_admin appointment
     logged_in(u)         — initial, via employee appointment
     doctor(u)            — logged_in + qualified appointment (both monitored)
     treating_doctor(d,p) — doctor + assigned(d,p) fact (monitored) + not excluded
   Privileges:
     read_record(d,p)     — treating_doctor(d,p), not excluded
   Appointments issued by the hospital:
     is_admin(a)   — requires bootstrap
     employee(u)   — requires hr_admin
     qualified(u)  — requires hr_admin *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Dlog = Oasis_trust.Decision_log
module Civ = Oasis_domain.Civ
module Obs = Oasis_obs.Obs

(* A service's granted requests, oldest first, read from its decision log. *)
let grants svc =
  List.filter
    (fun (r : Dlog.record) -> r.decision = Dlog.Grant)
    (Dlog.records (Service.decision_log svc))

(* Registry reads. Every count lives in the world's Obs registry; these
   fill in the labels the tests use most. [svc_count] reads a counter
   labelled with the service's name ([service.*], [svc.*],
   [trust.flaps_suppressed]); [svc_delta] reads the same key from an
   [Obs.diff]. *)
let svc_labels svc labels = ("service", Service.service_name svc) :: labels

let svc_count ?(labels = []) svc name =
  Obs.read (World.obs (Service.world svc)) ~labels:(svc_labels svc labels) name

let svc_delta ?(labels = []) d svc name = Obs.delta d ~labels:(svc_labels svc labels) name

(* The sum over every label set of one counter name, e.g. all
   [net.dropped{cause=..}] drops. *)
let total obs name =
  let prefix = name ^ "{" in
  List.fold_left
    (fun acc (key, v) ->
      if key = name || String.starts_with ~prefix key then acc + int_of_float v else acc)
    0 (Obs.metric_values obs)

(* A CIV cluster's [civ.*] counters, and the validations one replica
   answered. *)
let civ_count obs civ name = Obs.read obs ~labels:[ ("civ", Civ.civ_name civ) ] name

let civ_served_by obs civ i =
  Obs.read obs "civ.validations_served"
    ~labels:[ ("civ", Civ.civ_name civ); ("replica", string_of_int i) ]

(* Appointment issuance is itself policy (the 'appoint' statements). *)
let hospital_policy =
  {|
    initial bootstrap <- env:eq(1, 1);
    initial hr_admin(a) <- appt:is_admin(a);
    initial logged_in(u) <- appt:employee(u);
    doctor(u) <- *logged_in(u), *appt:qualified(u);
    treating_doctor(doc, pat) <-
        *doctor(doc), *env:assigned(doc, pat), env:!excluded(doc, pat);
    priv read_record(doc, pat) <- treating_doctor(doc, pat), env:!excluded(doc, pat);
    appoint is_admin(u) <- bootstrap;
    appoint employee(u) <- hr_admin(a);
    appoint qualified(u) <- hr_admin(a);
  |}

type t = {
  world : World.t;
  hospital : Service.t;
  admin : Principal.t;
  admin_session : Principal.session;
  alice : Principal.t;
  alice_qualification : Oasis_cert.Appointment.t;
}

let ok = function
  | Ok v -> v
  | Error denial -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string denial)

(* Builds the world and walks the administrative bootstrap so that [alice]
   holds employee + qualified appointments and [admin] is an hr_admin. *)
let make ?(seed = 7) ?config ?monitoring () =
  let world = World.create ~seed ?monitoring () in
  let hospital = Service.create world ~name:"hospital" ?config ~policy:hospital_policy () in
  Env.declare_fact (Service.env hospital) "assigned";
  Env.declare_fact (Service.env hospital) "excluded";
  let admin = Principal.create world ~name:"admin" in
  let alice = Principal.create world ~name:"alice" in
  let admin_session, qualification =
    World.run_proc world (fun () ->
        let boot = Principal.start_session admin in
        ignore (ok (Principal.activate admin boot hospital ~role:"bootstrap" ()));
        ignore
          (ok
             (Principal.appoint admin boot hospital ~kind:"is_admin"
                ~args:[ Value.Id (Principal.id admin) ]
                ~holder:admin ()));
        let session = Principal.start_session admin in
        ignore (ok (Principal.activate admin session hospital ~role:"hr_admin" ()));
        ignore
          (ok
             (Principal.appoint admin session hospital ~kind:"employee"
                ~args:[ Value.Id (Principal.id alice) ]
                ~holder:alice ()));
        let qualification =
          ok
            (Principal.appoint admin session hospital ~kind:"qualified"
               ~args:[ Value.Id (Principal.id alice) ]
               ~holder:alice ())
        in
        (session, qualification))
  in
  { world; hospital; admin; admin_session; alice; alice_qualification = qualification }

(* Walks alice to an active treating_doctor(alice, patient) role in a fresh
   session; returns the session. *)
let alice_treating t ~patient =
  Env.assert_fact (Service.env t.hospital) "assigned"
    [ Value.Id (Principal.id t.alice); Value.Int patient ];
  World.run_proc t.world (fun () ->
      let session = Principal.start_session t.alice in
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"logged_in" ()));
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"doctor" ()));
      ignore (ok (Principal.activate t.alice session t.hospital ~role:"treating_doctor" ()));
      session)

let denial_testable =
  Alcotest.testable
    (fun ppf d -> Protocol.pp_denial ppf d)
    (fun a b -> Protocol.denial_to_string a = Protocol.denial_to_string b)
