"""`python -m hopfalg`: the same command as the `hopfalg` script."""
from .cli import main

if __name__ == "__main__":
    main()
