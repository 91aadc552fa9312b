"""The benchmark's workloads: each is one `lrpc-sim simulate` configuration.

A run repeats `run_trials` on its configuration ("a pass") until its time
is used up; every pass at one seed does the same work and must write the
same CSV.  `trials` is the trials per t of one pass, sized so that two
passes fit in a 30-second run on a 2-core machine and, where the workload
shares codes, the per-t code generations stay a small share of a pass.
"""

from __future__ import annotations

DEFAULT_SEED = 1

WORKLOADS = {
    # The paper's reference experiment.  Encode, sample_error and
    # decode_local over D_S = 20 dominate; t = 5..6 leave the decoder early
    # (lines 5, 8, 14).  The base ring is scalar (D_R = 1), so base-ring
    # products do almost no work.
    "ref-z4": dict(ring_spec="Z4", m=20, n=20, k=8, lam=2,
                   t_values=(1, 2, 3, 4, 5, 6), trials=300),
    # A non-Galois chain ring: base-ring products go through the structure
    # tensor (D_R = 2, gamma = 2) and most decodes take the full path through
    # erasure_decode.  The arithmetic-kernel workload.  m = 10 rather than
    # 20: at m = 20 one code costs 1-6 s to generate, so with one code per t
    # trials/s swung by 20% from seed to seed.
    "quot-z4x2": dict(ring_spec="Z4[x]/(x^2)", m=10, n=10, k=4, lam=2,
                      t_values=(1, 2), trials=500),
    # The composite-ring example with a new code for every trial: code
    # generation (extension inversion, unit-pivot factorization over S)
    # dominates, decoding is a few percent, and Z6 = Z2 x Z3 goes through
    # the product-ring dispatch and an odd-characteristic factor.
    "crt-z6-fresh": dict(ring_spec="Z6", m=10, n=10, k=4, lam=2,
                         t_values=(1, 2), trials=50,
                         fresh_code_per_trial=True),
}

# SHA-256 of the CSV of one pass, made with `python -m lrpc_rings simulate`
# (flags from `cli_args`) by the code at the commit that defined the
# benchmark; DEFAULT_SEED and a few more.  A seed that is not listed is
# checked only for determinism across the passes of a run.
EXPECTED_CSV_SHA256 = {
    "ref-z4": {
        0: "6187dcfbc08e337eb39aaf27c514ddbe2ef6271f555db162d4c65829e61998e4",
        1: "2a24b9f8ab49536a41e0dd07e194a29e12f808e1cbff535c3f108123d5619e2c",
        2: "fd9fbba3e95bd18808dbb06bbbb566befcd3db3029da0552dc68588df23e0a42",
        3: "0f809ec6a10fc0b6f1346a73e8291c5bae7d7c0049360468d75a704c7f8ea75a",
        4: "ba378db491c03c68bc8bb66f869006c433148c372dec085b5b3e574847163ddf",
        5: "4b6acd48614d8b00c6b75995e838144fd57e8fa9b45d53453e931cec04ada455",
        6: "dad041836dcdcbc7c9ccdbfe2718ae050b90aefca2a90ee7ecb3d3732a9c6d5f",
        7: "3ec9730bba96f4d574c7dd12d18dccba3517c0104e7a889435d3063ea1d303f5",
        8: "d4015db83b967c8666164acc08f82262df199a7a8155899113d3f9d0d3410297",
        9: "547e2745a111d9147195db6439601eca40566b5cd77aa30389a02d724b89b857",
        10: "24f375d89399290586d16e4c899df7dc24541dc8f16f2533334ff0d603281bca",
    },
    "quot-z4x2": {
        0: "0ee17293548c8d145ea4d36cabd37dffa39e4185b38db7923274d8385373c1b4",
        1: "caf9ce5484cb11d5c0ef918e810382218f6b6c74bda6cb2ec2177c163c628c18",
        2: "601086e74351c41fe424dd4e67f1ad12c0ec0ccaf3709e7bb5d1d700ae342a1e",
        3: "1f0f0bdf0d05a2748c822957b12bacb12f7a18e0dbe4c882d4818820a3d6d7a8",
        4: "8daa75d648d3a40c62f639616e14d80117d2ad2b9da02285b201882ac05e28f2",
        5: "459696101e8e4e3621dd9bb0732004d507fb7980b6579b9d7980c829db2ca197",
        6: "11e543c2886b6a11c10e7d369e808420d6c27da5af6c8db07491ce99b36a1552",
        7: "68626c87c9a8943920d348488f521fc164f874065c06bdd34077c5a6e200d352",
        8: "9d02bba76712723742837b02aa4667c45d6d49d5005e6a3501436a58503d77fb",
        9: "01a910e0a66880a0b972d9c534219ceeb69309637f4c6c9362edfe9ffb3c7fe7",
        10: "3e44b9997bffbf7635c7fb5650cd57a6d6277584f7e04ea99c4691c3b58913d4",
    },
    "crt-z6-fresh": {
        0: "f976cc4631cce9e62a784fe63c601054c9cf5e46e7525b1c22d101ffb7fe1b98",
        1: "b83f217630a752d3531f0cb72cc6236e2e5e26d762e5137f662198b194af7cd9",
        2: "3585d76d4cffccc799ad54089c039e86a889f7200f37314119ba9f9efa8a8116",
        3: "0449092823b40f5a81bf02950393ba330234ff120d70335c4930ab1841bac103",
        4: "0fab640ba175c195da10a1757bbe08a16ebc12b6b09615f5d3f522e666c3cf8d",
        5: "803dec5fe9d20aa4144328b698c912f360b2558d784547f1e4ca3f4ef9b18a8f",
        6: "083e139f5efa0f4da770e852b96f13b33239720b6935f3cc1ba6bbfd5d112f91",
        7: "f976cc4631cce9e62a784fe63c601054c9cf5e46e7525b1c22d101ffb7fe1b98",
        8: "e9f3dcd1f65827b5a52ff459237b62853bbd076e1e7429178966385b59315a51",
        9: "5af8709495423b00d469e206fe11efbd8b2c873a4d1d1db66f4a3722c0b033eb",
        10: "f1aa741ba4cd9af4f66b920a3c4257b63d9380e1ab02cda6ea1e4104eba590ab",
    },
}

# SHA-256 of the lines "t,trial,outcome" of one pass, one per trial in the
# order run_trials makes them, where outcome is 0 for a decode to the sent
# codeword and otherwise the decoder line the failure counts under.  Made
# by the same code as EXPECTED_CSV_SHA256, for the same seeds.
EXPECTED_OUTCOME_SHA256 = {
    "ref-z4": {
        0: "73457088592930c81cea30f1dbb740619b8769c9a5565a8c6e393f8f7f1d666a",
        1: "c5181f7a012d8e8490eb806e277b8ef819583e6ce3303f2f856596cb0c01e33d",
        2: "5ea60cc00d67dbbe7a193b0f5178af69ac24177f1fc401ac0ae8c6ee5bfcee20",
        3: "94a3ab8a34d838a2f510106d1bb2b8fd1704314b07987681595f5b5dcb5b22a7",
        4: "ff09cee8859df69c1417344de4e041e55887daa09c1b3363a0072bcc0c032b5e",
        5: "f6307c548befc19f6854ced57829d2317cb21dbe8674e4d1603112ef2864f101",
        6: "e568ff71185f8236dc59c8f79e360f67b183821f8696baf5bb83a6cd91007a79",
        7: "a78bcca8fc11966c41386582d61e3bdffe0027f9636776fbeb065e92cd3a9928",
        8: "ee60989449be233e39ad60b8ba3c02e954a3ee836857cd1752ae8a4c3e89beb7",
        9: "6914fe43d45c8e1df437e461d5f00c3dcc59ec1e5614bea4dce16ed80977b7b5",
        10: "acd607bf9d40e3d3037fe98f2b9f695e0aab04d9a094e4b063b8614cb9dec056",
    },
    "quot-z4x2": {
        0: "5b39cde29f62e72c656531bbfe1c13305d32c9ec0fbaecdd4f9f756e0889094f",
        1: "842c821d818845faf2abde9b3823993a6e6c1ea73832e0770144bb8d7d394b00",
        2: "2ee547f7e04bece586fd73405c474471ed4b3382a210de07991714be33acd041",
        3: "84a2fe4d1eeec8f6f4ec40099632a846be5e4638f599851309f4bc54590c7402",
        4: "a1002fd6c14e053d6b2bf416ff3816b36d613dc317f031ceaa8cc6434674e2de",
        5: "31f324df33cd8af371d43b2156451880dc6dff1f4eaf45c51ebe29d53d04d165",
        6: "40ce2bef9488cb4392ad1c3f6732c7ad1fe37499681c71d1d053c634bf60212e",
        7: "17c3b5c9dddbb7bdab2ab274206a309d0b67279b913781a5c4bcc617eba39034",
        8: "aa33240ed7ed224295d819b30e4e0811cf0c5020d56cfb0e4aac935832127cd4",
        9: "16ad100afc7d5d6979d677e513de4426468481c9560461633969d109659685da",
        10: "09cd19c00dbaeafd88dc96e5d1a6e4a8cd256f3d2a12b42382bb2deb515abcc5",
    },
    "crt-z6-fresh": {
        0: "e76e2840b00b233ea01c8df8a1a37a8ab1d95097aab8152a7667e7c2c642e83b",
        1: "3975fe653d96cd9523672c50605e38ced49fb7883e17444a81b3c48fa17d95ad",
        2: "9815885ab2ab91e4aa28892c351bb0fb6d0fbf56d44d0d543c25dee9e5e5f748",
        3: "afbd850f967e75c6f7426eacc8a7f9d730f32ad05bac9b0d4f5dd998be2e5aba",
        4: "89a5de9ae1a5ffc707cce6451237e3c67154486565f01e83caf6deb35c37c33e",
        5: "a3d98a5b265477011da8172119d4006cf6144462e22be10e7a14f90d89fbc155",
        6: "c9e4d333d0837d9e1bed2cb7030ca9f60b61caca1c92af7568eaaa7f95eb5a80",
        7: "e5af68759655596772dec1be5b5c018d37aedabdff951f102ebdba02bf2091b9",
        8: "7695dfd005d379226ef77f87e1423502f1e21da912e4406889ab01db80005c39",
        9: "72bc7447487cf9c4eb6d9e12c6c6d148ad26220b2a607f6e7c201e1b92d29aa5",
        10: "8cfafe756070fd639ea194a50ac2362ae161ea8d3a61a9429a5dfc8f5c25b6ab",
    },
}


def cli_args(name: str, seed: int, trials: int | None = None) -> list:
    """The `lrpc-sim simulate` flags that run the same experiment."""
    w = WORKLOADS[name]
    t = w["t_values"]
    args = ["--ring", w["ring_spec"], "--ext", f"m={w['m']}",
            "--n", str(w["n"]), "--k", str(w["k"]), "--lambda", str(w["lam"]),
            "--t", f"{t[0]}..{t[-1]}", "--trials", str(trials or w["trials"]),
            "--seed", str(seed)]
    if w.get("fresh_code_per_trial"):
        args.append("--fresh-code-per-trial")
    return args
