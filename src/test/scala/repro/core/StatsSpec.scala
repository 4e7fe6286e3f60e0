package repro.core

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  // ---- inverse normal CDF, the oracle for Blb's z -------------------------

  test("zQuantile: median is 0") {
    assert(math.abs(NormalQuantile.zQuantile(0.5)) < 1e-9)
  }

  test("zQuantile: 97.5% quantile is 1.95996") {
    assert(math.abs(NormalQuantile.zQuantile(0.975) - 1.959964) < 1e-4)
  }

  test("zQuantile: 99.5% quantile is 2.5758") {
    assert(math.abs(NormalQuantile.zQuantile(0.995) - 2.575829) < 1e-4)
  }

  test("zQuantile: symmetric around 0.5") {
    Seq(0.6, 0.9, 0.99, 0.999).foreach { p =>
      assert(math.abs(NormalQuantile.zQuantile(p) + NormalQuantile.zQuantile(1 - p)) < 1e-7)
    }
  }

  test("zQuantile: tail branches (p < 0.02425 and p > 0.97575)") {
    assert(math.abs(NormalQuantile.zQuantile(0.001) + 3.090232) < 1e-4)
    assert(math.abs(NormalQuantile.zQuantile(0.999) - 3.090232) < 1e-4)
  }

  test("zQuantile: monotone increasing") {
    val ps = (1 to 99).map(_ / 100.0)
    val zs = ps.map(NormalQuantile.zQuantile)
    zs.sliding(2).foreach { case Seq(a, b) => assert(a < b) }
  }

  test("zQuantile: rejects p outside (0,1)") {
    assertThrows[IllegalArgumentException](NormalQuantile.zQuantile(0.0))
    assertThrows[IllegalArgumentException](NormalQuantile.zQuantile(1.0))
  }

  test("zCritical: 1-alpha=95% gives 1.96") {
    assert(math.abs(NormalQuantile.zCritical(0.05) - 1.959964) < 1e-4)
    assert(Blb.Z === NormalQuantile.zCritical(0.05))
  }

  // ---- mean / stddev -------------------------------------------------------

  test("mean and stddev on a known sample") {
    val xs = Array(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
    assert(Stats.mean(xs) === 5.0)
    // sample (n-1) stddev of this classic example = sqrt(32/7)
    assert(math.abs(Stats.stddev(xs) - math.sqrt(32.0 / 7)) < 1e-12)
  }

  test("stddev of constant or tiny samples is 0") {
    assert(Stats.stddev(Array(3.0, 3.0, 3.0)) === 0.0)
    assert(Stats.stddev(Array(1.0)) === 0.0)
    assert(Stats.stddev(Array.empty[Double]) === 0.0)
    assert(Stats.mean(Array.empty[Double]) === 0.0)
  }

  // ---- Hoeffding sizing (Theorems 9-10) ------------------------------------

  test("minPossibleWorlds matches the closed form") {
    val t = Hoeffding.minPossibleWorlds(m = 10, n = 1000, eps = 0.1, beta = 0.05)
    val expected = 2.0 / 0.01 * math.log(10.0 * 990 / 0.05)
    assert(math.abs(t - expected) < 1e-9)
  }

  test("paper Example 5: DBLP n=682819, k=30, eps=0.05, 1-beta=98% → ~16625 nodes") {
    val size = Hoeffding.minGqSize(n = 682819L, minNodes = 31L, eps = 0.05, beta = 0.02)
    assert(math.abs(size - 16625L) <= 2, s"got $size")
  }

  test("minGqSize: monotone — stricter eps needs more nodes") {
    val loose = Hoeffding.minGqSize(100000, 5, eps = 0.2, beta = 0.05)
    val strict = Hoeffding.minGqSize(100000, 5, eps = 0.05, beta = 0.05)
    assert(strict > loose)
  }

  test("minGqSize: monotone — stricter beta needs more nodes") {
    val loose = Hoeffding.minGqSize(100000, 5, eps = 0.1, beta = 0.10)
    val strict = Hoeffding.minGqSize(100000, 5, eps = 0.1, beta = 0.01)
    assert(strict > loose)
  }

  test("minGqSize: capped at n") {
    assert(Hoeffding.minGqSize(100, 5, eps = 0.01, beta = 0.01) === 100L)
  }

  test("minGqSize: degenerate minNodes >= n returns n") {
    assert(Hoeffding.minGqSize(10, 10, 0.1, 0.05) === 10L)
    assert(Hoeffding.minGqSize(10, 50, 0.1, 0.05) === 10L)
  }

  test("minGqSize: size-bounded variant uses l, truss variant uses k") {
    // §VI-B / §VI-C: the caller passes l (size bound) or k (truss) as minNodes.
    val core = Hoeffding.minGqSize(100000, 5, 0.1, 0.05)  // k-core, k=4 → k+1=5
    val truss = Hoeffding.minGqSize(100000, 4, 0.1, 0.05) // k-truss, k=4
    val sized = Hoeffding.minGqSize(100000, 20, 0.1, 0.05) // l=20
    assert(truss < core)
    assert(sized > core)
  }

  test("minPossibleWorlds rejects invalid parameters") {
    assertThrows[IllegalArgumentException](Hoeffding.minPossibleWorlds(10, 5, 0.1, 0.05))
    assertThrows[IllegalArgumentException](Hoeffding.minPossibleWorlds(10, 100, 0.0, 0.05))
    assertThrows[IllegalArgumentException](Hoeffding.minPossibleWorlds(10, 100, 0.1, 0.0))
  }
}
