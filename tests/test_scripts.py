import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbit_census_table(capsys):
    load_script("orbit_census").run()
    lines = capsys.readouterr().out.splitlines()
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[1:]]
    assert [row[0] for row in rows] == ["2", "3", "4", "5", "6"]
    assert [row[1] for row in rows] == ["3", "8", "27", "80", "240"]
    assert [row[2].split()[0] for row in rows] == ["3", "8", "27", ">5000", ">5000"]
