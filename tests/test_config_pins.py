"""Pinned resolved configurations.

Each argv below is parsed and resolved (nothing runs), and the sha256 of
its `config.json` bytes (`resolved_json()`) must match the table. The
argvs are the benchmark's command lines for all 16 seeds of its pool,
each subcommand at its defaults, and flag-heavy variants that set every
flag of a subcommand. A change to how the CLI fills, coerces or orders
its config shows up here as a changed digest.
"""

import hashlib

import pytest

from hbreset.cli import build_parser, config_from_args


def _bench_argvs():
    argvs = [["certify", "--grid-L", "1,10,100", "--bisect-iters", "3"]]
    for s in map(str, range(16)):
        argvs.append(["quad", "--seed", s, "--iters", "1500"])
        argvs.append(["logreg", "--seed", s, "--iters", "300"])
        for mode in ("hhb", "hihb"):
            argvs.append(["simulate", "--model", "gen", "--mode", mode, "--seed", s,
                          "--n", "10", "--dt", "0.001"])
    return argvs


DEFAULT_ARGVS = [
    ["certify"],
    ["quad", "--seed", "0"],
    ["logreg", "--seed", "0"],
    ["tune", "--seed", "0", "--method", "gd"],
    ["tune", "--seed", "0", "--method", "polyak", "--objective", "logreg"],
    ["simulate"],
    ["simulate", "--model", "gen", "--seed", "0"],
]

FLAG_HEAVY_ARGVS = [
    ["certify", "--seed", "7", "--methods", "polyak,hhb-pol", "--grid-L", "2,20",
     "--rule", "optimal", "--mu", "2", "--bisect-iters", "5", "--scan",
     "--max-oracle-calls", "50", "--dump-sdp"],
    ["certify", "--no-scan", "--no-dump-sdp", "--methods", "hihb-nes"],
    ["quad", "--seed", "5", "--methods", "nesterov,hihb-nes", "--n", "8", "--cond", "100",
     "--h", "0.01", "--K", "0.5,2", "--iters", "40"],
    ["logreg", "--seed", "6", "--methods", "gd,hhb", "--n", "5", "--m", "40", "--iters", "9",
     "--budget", "4", "--h-lo", "0.001", "--h-hi", "1", "--ref-max-iter", "500",
     "--ref-tol", "1e-8"],
    ["tune", "--seed", "2", "--method", "hihb", "--objective", "quad", "--n", "6",
     "--m", "30", "--cond", "50", "--budget", "7", "--h-lo", "1e-4", "--h-hi", "0.5"],
    ["simulate", "--mode", "hihb", "--model", "scalar", "--curv", "2.5", "--K", "0.5",
     "--K-lo", "0.25", "--K-hi", "2", "--t-min", "0.1", "--dt", "0.01", "--t-end", "3",
     "--q0", "2", "--p0=-1"],
    ["simulate", "--mode", "hb", "--model", "file", "--model-file", "m.json", "--K", "0"],
    ["simulate", "--model", "gen", "--seed", "18446744073709551615", "--n", "3",
     "--cond", "10", "--q0", "1,2,3"],
]

PINNED_ARGVS = _bench_argvs() + DEFAULT_ARGVS + FLAG_HEAVY_ARGVS

DIGESTS = {
    "certify --grid-L 1,10,100 --bisect-iters 3":
        "fcf6640f7e629d4084cc02aeae795bcba812fb4074237660fbeb563cd86a5593",
    "quad --seed 0 --iters 1500":
        "90fe267a2521263463b4e51e233c4681af3382f90f7d19f6e74bd3f236f425f1",
    "logreg --seed 0 --iters 300":
        "9825c411dacffb6b1630878df6c4e06ed60877e9f71f60e2990cfffad3d201b8",
    "simulate --model gen --mode hhb --seed 0 --n 10 --dt 0.001":
        "8072965f9ae378a526f6e2a138350898dcb313ca4a5315667514ab2a5b7f4d77",
    "simulate --model gen --mode hihb --seed 0 --n 10 --dt 0.001":
        "bfece2b9a260fbfad1b87d0b3172d71932e7e97eaaba5f7eca3dcb07894b556e",
    "quad --seed 1 --iters 1500":
        "d231da87bc44f4ba3bbf38562b29dbde3d4c4e5b6caee2ddb73b9f465c10846d",
    "logreg --seed 1 --iters 300":
        "b5695523fa988a3dc86f61e0b57dba2533d98175eaa72ebd5b8351eb30f18a6c",
    "simulate --model gen --mode hhb --seed 1 --n 10 --dt 0.001":
        "3c75c50be37d824c853fecf0734ba033a6beb5fa87a112c39e9e75a84410bef5",
    "simulate --model gen --mode hihb --seed 1 --n 10 --dt 0.001":
        "ef417c0e8709d551acff4375a967794ad6f9b2ab0c54743efb617e22d1ba6b56",
    "quad --seed 2 --iters 1500":
        "b36e0f3420c2d1b51542a85de7d4d968bb228cd5f63e743b97777ee23fceace9",
    "logreg --seed 2 --iters 300":
        "a7e1329e93ed60c3143ab14efee01271c4ba3c22955b52d365ef1743705ec89d",
    "simulate --model gen --mode hhb --seed 2 --n 10 --dt 0.001":
        "b4afa0c87238f902175b20ad67a933018cfa4b4b8623142cfe623cabe5878978",
    "simulate --model gen --mode hihb --seed 2 --n 10 --dt 0.001":
        "2a663acd0936c9e6f30f079a1aa3b0942220dac3f94f6c0014ec12fd56a29ee2",
    "quad --seed 3 --iters 1500":
        "9e5fd6e67b183905f9562d44c64f52910a90fb8f059a192ca93081ab61565772",
    "logreg --seed 3 --iters 300":
        "620c10927dc9785db0b771e66bbdd80f9da9a24ef424ab01f4923247a583b7b4",
    "simulate --model gen --mode hhb --seed 3 --n 10 --dt 0.001":
        "81dbdd19f9c1fb579ea2397a210974e57533553c43054b94b7db093559c0af6b",
    "simulate --model gen --mode hihb --seed 3 --n 10 --dt 0.001":
        "4766c2185c53f0fabad4a4f438dd01ff7cede3879243a587ea9e31624a876ce9",
    "quad --seed 4 --iters 1500":
        "f22165f35b318e584b96d84df37fa69295c3a42f67d384b5c7a8a58b6046a7fe",
    "logreg --seed 4 --iters 300":
        "ac1b80a1ca957f565a90cfc915822f8d14b0252b440560977738631352135352",
    "simulate --model gen --mode hhb --seed 4 --n 10 --dt 0.001":
        "478dd3b585be57205d04c2ff59279abb899e397c576d0dd71dd7667cbe1fd53f",
    "simulate --model gen --mode hihb --seed 4 --n 10 --dt 0.001":
        "3845d5f08631d9dd34d755d745cef7417a17544f96ccd1c15b8734ccc15203dd",
    "quad --seed 5 --iters 1500":
        "2f2d0cd847169fb705f629f50470561da706983d12f2d46296a44ea29d72c208",
    "logreg --seed 5 --iters 300":
        "eba97061922695858f68c56ab63f8b127aeb586e0abe000be6023fe047f9ef8a",
    "simulate --model gen --mode hhb --seed 5 --n 10 --dt 0.001":
        "ea4aea1df19fd3cae66ad526523726f5e63a0a348ab318d8bcf65a81b8f6ccf4",
    "simulate --model gen --mode hihb --seed 5 --n 10 --dt 0.001":
        "7c44cbf1273f2ec12ead918d4d5fdb36ad6b3a58236b6d14aca061bd7d2d0aff",
    "quad --seed 6 --iters 1500":
        "6b285392c33d7e4632aebeacd8bd95c2231d10b22633c42c5e566e69ca26f3b9",
    "logreg --seed 6 --iters 300":
        "a4ec562970b4cf9dcafdfc9b7016e7befbbcd4e8ca258e210f0c9e478d087159",
    "simulate --model gen --mode hhb --seed 6 --n 10 --dt 0.001":
        "1aa063614b795f578eae002d058018bc9303e11433ef32e40503450318e2ae17",
    "simulate --model gen --mode hihb --seed 6 --n 10 --dt 0.001":
        "60e913f792809a4094f5416de751fb7d3f2de81eb3b2d35280901976456ac3d3",
    "quad --seed 7 --iters 1500":
        "e3d661f089bc649e41b2ce1c4f609c13b9453c98d168fe7dd86c7c27c45f8a87",
    "logreg --seed 7 --iters 300":
        "bdd215a7aa9c046101744e5883118ee55f40004684bc200d31f6201aa70e523e",
    "simulate --model gen --mode hhb --seed 7 --n 10 --dt 0.001":
        "b8038ca661f7c3327f4cc8a833a91a26b225775ebace11c612fada1a4c82fbcd",
    "simulate --model gen --mode hihb --seed 7 --n 10 --dt 0.001":
        "45a18537ce1e0f8299b539e2504ee926539914aa047c9f1fd27aeed0c1f3276a",
    "quad --seed 8 --iters 1500":
        "b6be9b18c18568d5ea2f986f140f270fd13a16041be94a9771fec5adc15f9c95",
    "logreg --seed 8 --iters 300":
        "0fed94532daf5f38cbc04cb016bca66e49ba865701c21c7354d3548e67a9baa7",
    "simulate --model gen --mode hhb --seed 8 --n 10 --dt 0.001":
        "2cc27bad9ac31d1462e145faaf927c689abf36fcd7b7806eb4fcfb64f0a986a7",
    "simulate --model gen --mode hihb --seed 8 --n 10 --dt 0.001":
        "6f6785ffba800382f17546fe62b2680de6efad099b0d4a193eac8588752e562a",
    "quad --seed 9 --iters 1500":
        "5b27b122f93b2607f3662b4579031ee37567006e78017eb8aa7751c1b2e4c2af",
    "logreg --seed 9 --iters 300":
        "3bf74802071c09d8d09267258456189c6756e4be4081a1d02718931cf7c4f772",
    "simulate --model gen --mode hhb --seed 9 --n 10 --dt 0.001":
        "dfede6dafd80b9260fcf9fbbe82acc69137745ff8b93800491e51237d9c19622",
    "simulate --model gen --mode hihb --seed 9 --n 10 --dt 0.001":
        "27907604b10a71215640ed3e36eb2c9929c0309b2535b3a33b3b3b715f3c7c28",
    "quad --seed 10 --iters 1500":
        "92f14ea0caf0edc1c75df272b92ebf7e74ea6ce2087827ce7a5e68c0c9d1b47f",
    "logreg --seed 10 --iters 300":
        "0dc7c6538304a9b0bc9735fa1559528e97c951dee69a1a582e743f1986d77338",
    "simulate --model gen --mode hhb --seed 10 --n 10 --dt 0.001":
        "8a5a0e3d9582653937e1669a6c88f24e133472009aa01664f4bc8424d6e40f93",
    "simulate --model gen --mode hihb --seed 10 --n 10 --dt 0.001":
        "48b928307f2fb647ee211fdb328a7169d72b33478dd00d9f9d20e11cbe40a7b2",
    "quad --seed 11 --iters 1500":
        "c9713524f0b6dbddc1327bfe61ef94ebaa1b13846351c5f3102e5dd5612c5b49",
    "logreg --seed 11 --iters 300":
        "bff619690178c72eaacaf7e0c35ea495a0b555a5638e4849cc70523f72fbf212",
    "simulate --model gen --mode hhb --seed 11 --n 10 --dt 0.001":
        "2155f8022d116524ce9a5f3893b10be9f36399d84fa46b6ff5f36e6338dc0d2e",
    "simulate --model gen --mode hihb --seed 11 --n 10 --dt 0.001":
        "9a6bf1b9eb68ebdbf021f469db1b701d2c7dc62e06bca6c8e2b64abd44396aa5",
    "quad --seed 12 --iters 1500":
        "e9e57cd7533cc6068f926116d8c0ccc276c5976e34f25955c8315e0bce636774",
    "logreg --seed 12 --iters 300":
        "eb214ffa92e8f09d10346b427cddbb2d828d1309d3b35d93c37e7911b318f5ea",
    "simulate --model gen --mode hhb --seed 12 --n 10 --dt 0.001":
        "95e1f123644f8089b5be810d4ca18430e71e4c4492c25fab56556411da0ad35c",
    "simulate --model gen --mode hihb --seed 12 --n 10 --dt 0.001":
        "5bb9cb9efd0627d0b2a7e04a524ffcd4d83bf8bbc26641bb388ed664017e8a72",
    "quad --seed 13 --iters 1500":
        "ff615aa3c6e5e00122f650c5384beb2441f2d7e4a636d3121cad665dde142a85",
    "logreg --seed 13 --iters 300":
        "22674808ca110456c4cbf5a18bb546ece5a58cddd9d8d34c3c7973bae9a6dde7",
    "simulate --model gen --mode hhb --seed 13 --n 10 --dt 0.001":
        "9f9d316b240932b4b78c83bab7970bcd025467db913c8a0d36fe190d852b27ac",
    "simulate --model gen --mode hihb --seed 13 --n 10 --dt 0.001":
        "fc006d31de52090a9e6b2dda0c950f1c42968055bef3909dec6e303c9e8369dd",
    "quad --seed 14 --iters 1500":
        "623e351e8cc08581e87ce1963a93e7dfcbfde7dee154fcb9b94b22ff1096d654",
    "logreg --seed 14 --iters 300":
        "ce7eb2a0954ab335be144edce229ce5a6a36a61d4cb3ccaab753df8796c560ed",
    "simulate --model gen --mode hhb --seed 14 --n 10 --dt 0.001":
        "fd95607c05b2e37fade3dd1b2e6ac5d9c494047a4529efbd7a5387e0e09d0bbb",
    "simulate --model gen --mode hihb --seed 14 --n 10 --dt 0.001":
        "d84034c86f39732afb9656ea06e899c7cf8b92c2340162468becc93d77869bbe",
    "quad --seed 15 --iters 1500":
        "fc09017672c35f7abe32d3c8302efd93e72ef63a83e7b32c464df63a7c6ebed9",
    "logreg --seed 15 --iters 300":
        "dfcfabc02ae0b3d2e864639f20d99984f16d0f51ce18c2fffb48011f2220cd93",
    "simulate --model gen --mode hhb --seed 15 --n 10 --dt 0.001":
        "a5fa35eeb3c863ef7e8fdfdcf238c6c8b0a47e8d776765575a7531bd82bb64be",
    "simulate --model gen --mode hihb --seed 15 --n 10 --dt 0.001":
        "d4b3ff407ebf448402718ff7a13d0935ece436e8b75db9166779a6667c287f12",
    "certify":
        "f109dbabd645d0e95ff4d680bd3f5192b44f26ea1409c5dfed9b57d0b8db9731",
    "quad --seed 0":
        "c65f0bfc6259b1de4c220ce41031597df4bac57f7b55629831b22603866d14be",
    "logreg --seed 0":
        "7aad31659a1a49f97299da7db72bff8a3db6ef2674275e6e425e585dd1a6bde4",
    "tune --seed 0 --method gd":
        "2a9f48b9d1519263d4e1516a5862b334a3495f115fc0d9c16709a54d201093b4",
    "tune --seed 0 --method polyak --objective logreg":
        "e80d5935481a94e8a49c37b4eb8ba80615447b1c4150476d4e985a6d4b96bed3",
    "simulate":
        "9f723caaaa7a71f0f8069ab43470a9b46f353b12e1d66395b974debdeedcf2e7",
    "simulate --model gen --seed 0":
        "d1d1c7817753affa85b5ad0567d228674f680950ef437ad7451f1f0ee6138a46",
    "certify --seed 7 --methods polyak,hhb-pol --grid-L 2,20 --rule optimal --mu 2 "
    "--bisect-iters 5 --scan --max-oracle-calls 50 --dump-sdp":
        "e24707173ee0f54bc887140ccb46b70a383f292b5987e4dab2e4f0af7f2612a2",
    "certify --no-scan --no-dump-sdp --methods hihb-nes":
        "f28bb5f72c95753a0b521ad29894a891f71261c2b935445010c0fe5911cd4dbd",
    "quad --seed 5 --methods nesterov,hihb-nes --n 8 --cond 100 --h 0.01 --K 0.5,2 "
    "--iters 40":
        "e86bd87f1cfea795952d3fad5948f16bb40bb2b03aa8737cdebb4cf3745e8817",
    "logreg --seed 6 --methods gd,hhb --n 5 --m 40 --iters 9 --budget 4 --h-lo 0.001 "
    "--h-hi 1 --ref-max-iter 500 --ref-tol 1e-8":
        "565d51323da91710329113e1a62b141df30d515375a84c70eaa5f276990507ee",
    "tune --seed 2 --method hihb --objective quad --n 6 --m 30 --cond 50 --budget 7 "
    "--h-lo 1e-4 --h-hi 0.5":
        "3867b5b5d92bb2a5f24e0a464168ccec49d352b3e3459340b8d472b19cd4c885",
    "simulate --mode hihb --model scalar --curv 2.5 --K 0.5 --K-lo 0.25 --K-hi 2 "
    "--t-min 0.1 --dt 0.01 --t-end 3 --q0 2 --p0=-1":
        "cd622920f181bd4a393ea24fcb05331f632b55097ef56a87552fb02af7d5ceb1",
    "simulate --mode hb --model file --model-file m.json --K 0":
        "dac88bf4ab2021e33d7df6918a9b11f57b236ba2bbba47fe6cfc5a78122a23c5",
    "simulate --model gen --seed 18446744073709551615 --n 3 --cond 10 --q0 1,2,3":
        "a491834ffeacdc23a3a3a996831f7d1bc89dd0fb1788ae7ed0ce2ca8205574bb",
}



def test_pinned_argvs_are_distinct_and_all_pinned():
    keys = [" ".join(argv) for argv in PINNED_ARGVS]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(DIGESTS)


@pytest.mark.parametrize("argv", PINNED_ARGVS, ids=" ".join)
def test_resolved_config_bytes_are_pinned(argv):
    cfg = config_from_args(build_parser().parse_args(argv))
    digest = hashlib.sha256(cfg.resolved_json().encode()).hexdigest()
    assert digest == DIGESTS[" ".join(argv)]
