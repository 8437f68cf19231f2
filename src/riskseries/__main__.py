"""``python -m riskseries``: the command-line front end."""
from .cli import run

if __name__ == "__main__":  # importing the module (e.g. to inspect it) runs nothing
    run()
