"""The README's command-line transcripts: argv, expected stdout, exit code.

Copied from README.md.  In a README line, '...' elides a run of non-space
characters (the verify-maximal digits); the `fixtures` listing, which the
README cuts short, is completed from the README's "Bundled fixtures" table,
sorted by name.
"""

FIXTURE_NAMES = sorted(
    "fib index-bounded rec-3-1 rec-8-2-3 blocks7 factorial mult-2-3 mult-11-3 pin-3 "
    "seven-scaled golden-real harmonic sevenths golden-41 padic-5-20".split()
)

TRANSCRIPTS = (
    (["fixtures"], "".join(f"{n}\n" for n in FIXTURE_NAMES), 0),
    (["encode", "-f", "fib", "100", "144"],
     "# fib: value\tdigits\n100\t3:1,5:1,10:1\n144\t11:1\n", 0),
    (["decode", "-f", "fib", "3:1,5:1,10:1"],
     "# fib: digits\tvalue\n3:1,5:1,10:1\t100\n", 0),
    (["shift", "-f", "fib", "3:1,5:1,10:1"],
     "# fib: digits\tshifted value\n3:1,5:1,10:1\t162\n", 0),
    (["enumerate", "-f", "fib", "--count", "5"],
     "# fib: first 5 members, lex order\n0\t0\t0\n1\t1:1\t1\n2\t2:1\t2\n3\t3:1\t3\n4\t1:1,3:1\t4\n", 0),
    (["enumerate", "-f", "sevenths", "--horizon", "3", "--count", "5"],
     "# sevenths: members restricted to [1, 3], increasing order\n"
     "0\t0\t0\n1\t3:1\t1/7\n2\t2:1\t2/7\n3\t1:1\t3/7\n4\t1:1,3:1\t4/7\n", 0),
    (["decompose", "-f", "fib", "1:1,4:1"],
     "# fib: digits\tblocks\n1:1,4:1\t[1,1]max [2,4]proper\n", 0),
    (["verify-unique", "-f", "mult-2-3"],
     "# mult-2-3: members of order <= 8 under main\n"
     "# seen: 6561 (nonzero 6560), distinct values: 6561\n# unique on this range\n", 0),
    (["subset", "-f", "mult-11-3", "--bound", "200"],
     "# mult-11-3: members with value <= 200 under main\n"
     "# members: 188, distinct values: 162\n# collision: 1:6 and 2:8,3:1 both reach 114\n", 1),
    (["verify-recurrence", "-f", "fib", "--coeffs", "1,1", "--start", "3", "--stop", "20"],
     "# fib: Q_n = 1,1 recurrence holds for n in [3, 20]\n", 0),
    (["verify-maximal", "-f", "golden-real", "--n", "2", "--horizon", "200", "--tol", "1e-25"],
     "# golden-real: maximal row at 2 summed to 200\n"
     "# lhs=0.6180339887498948482045868...  rhs=0.6180339887498948482045868...  "
     "error=9.85109052017255393E-43\n# ok within 1E-25\n", 0),
    (["real-expand", "-f", "sevenths", "100/343"],
     "# sevenths: x\tdigits\tresidual\texact\n100/343\t2:1,8:1\t0\tTrue\n", 0),
    (["padic-expand", "-f", "golden-41", "6141377528281"],
     "# golden-41: residue\tdigits\n6141377528281\t1:1\n", 0),
    (["converse-probe", "-f", "padic-5-20", "--cap", "4"],
     "# padic-5-20: value sets match: True\n# first differing term: 2\n"
     "# max digit seen: 4, digit bound for the converse: 2\n", 0),
    (["dominant-check", "--multiplicity", "1,1"],
     "# dominant (witness positions (1, 2))\n", 0),
)
