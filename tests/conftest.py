import pytest
from hypothesis import settings

from sppam import cli, parse_arff

# CPU speed on shared hosts can change by more than 1.5x within a run, so a
# per-example deadline fails property tests at random; none is set.
settings.register_profile("sppam", deadline=None)
settings.load_profile("sppam")

# Two observation days of wind and surf conditions, four records each.
# The daily rollup of this sample is pinned below and in GOLDEN_DATA_SECTION.
SURF_TWO_DAYS = """\
@ATTRIBUTE Date String
@ATTRIBUTE Wind_Knots numeric
@ATTRIBUTE Wind_Dir {N, NE, E, SE, S, SW, W, NW}
@ATTRIBUTE Surf {0,1}
@DATA
18-11-2010,15.6,SE,0
18-11-2010,9.7,SE,0
18-11-2010,3.9,SE,0
18-11-2010,5.8,NE,0
19-11-2010,11.7,NE,0
19-11-2010,15.6,NE,0
19-11-2010,13.6,E,1
19-11-2010,15.6,E,1
"""

# Expected daily rollup of SURF_TWO_DAYS, numeric cells at two decimals.
SURF_TWO_DAYS_DAILY = """\
@ATTRIBUTE Date STRING
@ATTRIBUTE Wind_Knots_MAX NUMERIC
@ATTRIBUTE Wind_Knots_MIN NUMERIC
@ATTRIBUTE Wind_Knots_AVG NUMERIC
@ATTRIBUTE Wind_Knots_LAST NUMERIC
@ATTRIBUTE Wind_Dir_N_PERC NUMERIC
@ATTRIBUTE Wind_Dir_NE_PERC NUMERIC
@ATTRIBUTE Wind_Dir_E_PERC NUMERIC
@ATTRIBUTE Wind_Dir_SE_PERC NUMERIC
@ATTRIBUTE Wind_Dir_S_PERC NUMERIC
@ATTRIBUTE Wind_Dir_SW_PERC NUMERIC
@ATTRIBUTE Wind_Dir_W_PERC NUMERIC
@ATTRIBUTE Wind_Dir_NW_PERC NUMERIC
@ATTRIBUTE Wind_Dir_LAST {N, NE, E, SE, S, SW, W, NW}
@ATTRIBUTE Surf {0,1}
@DATA
18-11-2010,15.6,3.9,8.75,5.8,0.0,25.0,0.0,75.0,0.0,0.0,0.0,0.0,NE,0
19-11-2010,15.6,11.7,14.13,15.6,0.0,50.0,50.0,0.0,0.0,0.0,0.0,0.0,E,1
"""

GOLDEN_DATA_SECTION = (
    "@DATA\n"
    "18-11-2010,15.6,3.9,8.75,5.8,0.0,25.0,0.0,75.0,0.0,0.0,0.0,0.0,NE,0\n"
    "19-11-2010,15.6,11.7,14.13,15.6,0.0,50.0,50.0,0.0,0.0,0.0,0.0,0.0,E,1\n"
)

SURF_TWO_DAYS_CSV = """\
Date,Wind_Knots,Wind_Dir,Surf
18-11-2010,15.6,SE,0
18-11-2010,9.7,SE,0
18-11-2010,3.9,SE,0
18-11-2010,5.8,NE,0
19-11-2010,11.7,NE,0
19-11-2010,15.6,NE,0
19-11-2010,13.6,E,1
19-11-2010,15.6,E,1
"""


@pytest.fixture
def surf_dataset():
    return parse_arff(SURF_TWO_DAYS)


@pytest.fixture
def surf_file(tmp_path):
    path = tmp_path / "surf.arff"
    path.write_text(SURF_TWO_DAYS, encoding="utf-8")
    return path


@pytest.fixture
def run_cli(capsys):
    def run(*args):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if exc.code is not None else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
