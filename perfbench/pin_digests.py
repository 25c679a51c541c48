"""Pin the reference artifact digests the benchmark checks against.

Run from the repository root::

    python3 perfbench/pin_digests.py 0 1

For each seed this runs the reference path — the study serially in
memory, no checkpoints, no workers, no sharding — saves the artifact
and records its sha256 in ``perfbench/digests.json``.  The benchmark's
interrupted, resumed and (for ``fleet``) sharded and merged artifacts
must equal these bytes.
"""

import json
import os
import sys
import tempfile

import run  # sets the thread environment before numpy is imported
import workloads


def main(seeds) -> None:
    run.import_program()
    from repro.analysis.campaign import LongTermCampaign
    from repro.io.resultstore import save_campaign

    with open(workloads.DIGESTS_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    os.makedirs(run.WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        fleet = workloads.Fleet(0, tmp, 1)
        for seed in seeds:
            studies = {
                "paper-geometry": LongTermCampaign(random_state=seed),
                "fleet": LongTermCampaign(
                    device_count=fleet.device_count,
                    months=fleet.months,
                    measurements=fleet.measurements,
                    profile=fleet.profile,
                    random_state=seed,
                ),
            }
            for group, campaign in studies.items():
                path = os.path.join(tmp, f"{group}-{seed}.json")
                save_campaign(campaign.run(), path)
                pinned.setdefault(group, {})[str(seed)] = workloads.sha256_of(path)
                print(group, seed, pinned[group][str(seed)], flush=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]])
