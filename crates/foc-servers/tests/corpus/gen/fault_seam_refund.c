// n=9223372036854775807 churn=60 sequence=2
short g0[12];
long f(long n) {
    long i = 0;
    if (g0[12] < g0[i] / 7) {
    } else {
        if (12 < g0[n]) {
        }
    }
}
