"""Set-up of a workload: import the package, build and compile its systems.

Run as a script in a fresh interpreter it is the ``setup_s`` probe: it
prints ``ready`` once the first job could start, then the time of the
reference kernel (reference.py) in this process, which the runner uses to
scale the set-up time:

    python3 setup_probe.py <src dir> '<JSON list of system specs>'

A spec is ``{"kind": "rigid", "params": [I1, I2, I3, M0]}`` or
``{"kind": "config", "path": ...}``; each system is built with the
default Casimir certification.
"""

import json
import sys


def build_systems(specs: list) -> list:
    """Build and compile each system the way a first job would."""
    import metriplectic as mp

    systems = []
    for spec in specs:
        if spec["kind"] == "rigid":
            sys_def = mp.rigid_body_system(mp.RigidBodyParams(*spec["params"]))
        else:
            sys_def = mp.load_system_file(spec["path"])
        mp.field_function(sys_def, "metriplectic")
        mp.diagnostics_function(sys_def)
        systems.append(sys_def)
    return systems


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    build_systems(json.loads(sys.argv[2]))
    print("ready", flush=True)
    from reference import reference_time

    reference_time()  # warm up
    print(reference_time(), flush=True)
