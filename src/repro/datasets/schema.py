"""Shared vocabulary for the synthetic data-set generators (Appendix A).

The thesis evaluates on LDBC SNB SF1 and a DBpedia extract.  Neither can
be shipped here, so :mod:`repro.datasets.ldbc` and
:mod:`repro.datasets.dbpedia` generate deterministic synthetic graphs with
the same schema vocabulary, value pools and skew characteristics
(Zipf-distributed popularity, correlated attributes).  This module holds
the value pools and small sampling helpers both generators share.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Sequence, TypeVar

T = TypeVar("T")

FIRST_NAMES: Sequence[str] = (
    "Anna", "Alice", "Sandra", "Maria", "Elena", "Katrin", "Ulrike", "Angela",
    "Alina", "Laura", "Sophie", "Julia", "Emma", "Nina", "Clara", "Ivy",
    "Thomas", "Maik", "Marcus", "Wolfgang", "Arne", "Adrian", "Gregor",
    "Jan", "Felix", "Lukas", "Paul", "David", "Martin", "Peter", "Chen",
    "Wei", "Raj", "Omar", "Ivan", "Pedro", "Jose", "Ahmed", "Yuki", "Kenji",
)

LAST_NAMES: Sequence[str] = (
    "Mueller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer", "Wagner",
    "Becker", "Hoffmann", "Koch", "Richter", "Klein", "Wolf", "Neumann",
    "Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Lange", "Li",
    "Wang", "Zhang", "Kumar", "Singh", "Garcia", "Martinez", "Silva", "Sato",
    "Tanaka", "Ivanov", "Petrov", "Novak", "Kowalski", "Andersen",
)

COUNTRIES: Sequence[str] = (
    "Germany", "France", "Spain", "Italy", "Poland", "Netherlands",
    "Denmark", "Sweden", "Norway", "Finland", "Austria", "Switzerland",
    "China", "India", "Japan", "Brazil", "Mexico", "Canada", "Australia",
    "Egypt",
)

CITIES_PER_COUNTRY: Sequence[Sequence[str]] = (
    ("Berlin", "Dresden", "Munich", "Hamburg", "Cologne"),
    ("Paris", "Lyon", "Marseille", "Toulouse", "Nice"),
    ("Madrid", "Barcelona", "Valencia", "Seville", "Bilbao"),
    ("Rome", "Milan", "Naples", "Turin", "Florence"),
    ("Warsaw", "Krakow", "Lodz", "Wroclaw", "Poznan"),
    ("Amsterdam", "Rotterdam", "The Hague", "Utrecht", "Eindhoven"),
    ("Copenhagen", "Aarhus", "Odense", "Aalborg", "Esbjerg"),
    ("Stockholm", "Gothenburg", "Malmo", "Uppsala", "Lund"),
    ("Oslo", "Bergen", "Trondheim", "Stavanger", "Drammen"),
    ("Helsinki", "Espoo", "Tampere", "Vantaa", "Oulu"),
    ("Vienna", "Graz", "Linz", "Salzburg", "Innsbruck"),
    ("Zurich", "Geneva", "Basel", "Bern", "Lausanne"),
    ("Beijing", "Shanghai", "Shenzhen", "Guangzhou", "Chengdu"),
    ("Delhi", "Mumbai", "Bangalore", "Chennai", "Kolkata"),
    ("Tokyo", "Osaka", "Kyoto", "Nagoya", "Sapporo"),
    ("Sao Paulo", "Rio de Janeiro", "Brasilia", "Salvador", "Fortaleza"),
    ("Mexico City", "Guadalajara", "Monterrey", "Puebla", "Tijuana"),
    ("Toronto", "Montreal", "Vancouver", "Calgary", "Ottawa"),
    ("Sydney", "Melbourne", "Brisbane", "Perth", "Adelaide"),
    ("Cairo", "Alexandria", "Giza", "Luxor", "Aswan"),
)

UNIVERSITY_SUFFIXES: Sequence[str] = ("University", "Institute of Technology")

COMPANY_STEMS: Sequence[str] = (
    "Soft", "Data", "Graph", "Cloud", "Net", "Micro", "Quantum", "Cyber",
    "Logi", "Tele", "Auto", "Bio", "Hydro", "Agro", "Metal",
)

COMPANY_SUFFIXES: Sequence[str] = ("Systems", "Labs", "Works", "Group")

TAG_NAMES: Sequence[str] = (
    "databases", "graphs", "provenance", "music", "football", "tennis",
    "photography", "cooking", "travel", "hiking", "painting", "poetry",
    "history", "astronomy", "physics", "chemistry", "biology", "economics",
    "politics", "philosophy", "film", "theatre", "opera", "jazz", "rock",
    "classical", "gaming", "chess", "sailing", "cycling", "running",
    "swimming", "yoga", "gardening", "fashion", "architecture", "design",
    "robotics", "ai", "space", "climate", "energy", "medicine", "law",
    "education", "linguistics", "archaeology", "geography", "statistics",
    "mathematics",
)

BROWSERS: Sequence[str] = ("Firefox", "Chrome", "Safari", "InternetExplorer", "Opera")

GENDERS: Sequence[str] = ("female", "male")

LANGUAGES: Sequence[str] = ("en", "de", "fr", "es", "zh", "ru", "pt", "ja")

PROFESSIONS: Sequence[str] = (
    "actor", "director", "writer", "producer", "composer", "scientist",
    "politician", "athlete", "musician", "painter",
)

FILM_GENRES: Sequence[str] = (
    "drama", "comedy", "thriller", "documentary", "animation", "romance",
    "science-fiction", "horror", "western", "musical",
)

ORG_SECTORS: Sequence[str] = (
    "software", "automotive", "finance", "pharma", "energy", "media",
    "retail", "aerospace",
)


def zipf_index(rng: random.Random, n: int, exponent: float = 1.0) -> int:
    """Sample an index in ``[0, n)`` with Zipfian (rank-skewed) popularity.

    Rank 0 is the most popular.  Inverts the truncated zeta CDF (the
    cached cumulative weights) at one uniform draw by bisection: exact,
    rejection-free, deterministic given ``rng``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    weights = _zipf_weights(n, exponent)
    return bisect_left(weights, rng.random() * weights[-1])


_ZIPF_CACHE: dict = {}


def _zipf_weights(n: int, exponent: float) -> List[float]:
    key = (n, exponent)
    cached = _ZIPF_CACHE.get(key)
    if cached is None:
        total = 0.0
        cumulative: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**exponent
            cumulative.append(total)
        _ZIPF_CACHE[key] = cumulative
        cached = cumulative
    return cached


def pick(rng: random.Random, pool: Sequence[T]) -> T:
    """Uniform choice from a sequence (tiny wrapper for readability)."""
    return pool[rng.randrange(len(pool))]


def pick_zipf(rng: random.Random, pool: Sequence[T], exponent: float = 1.0) -> T:
    """Zipf-skewed choice: early pool entries are much more popular."""
    return pool[zipf_index(rng, len(pool), exponent)]
